package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"blazes"
	"blazes/internal/journal"
	"blazes/service"
)

// traced runs the serve part layer by layer: the reference phase with a
// span per request and /v1/stats polled for queue depth, then the
// server's counters, then the acknowledged op stream replayed in process
// through the session, report and journal layers.
func (sr *serveRun) traced(budget time.Duration) error {
	b, tr := sr.b, sr.b.tr
	p, warm, err := sr.boot("ref", tr)
	if err != nil {
		return err
	}
	ph := schedule(sr.rng, refRate, budget*35/100, len(warm))
	for _, s := range ph.sessions {
		s.span = tr.newID()
	}
	client := newLoadClient(p.base, tr)
	// The poller has a connection of its own, so it never holds one of
	// the load's.
	poller := &http.Client{Timeout: 5 * time.Second}
	stop, polled := make(chan struct{}), make(chan int64)
	go func() {
		var depth int64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				polled <- depth
				return
			case <-tick.C:
				if st, err := fetchStats(poller, p.base); err == nil && st.Admission.QueueDepth > depth {
					depth = st.Admission.QueueDepth
				}
			}
		}
	}()
	phaseStart := time.Now()
	client.run(ph)
	close(stop)
	depth := <-polled
	st, err := fetchStats(poller, p.base)
	if err != nil {
		return err
	}
	if err := p.stop(); err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	sr.count(ph)
	sr.sessions = append(warm, ph.sessions...)
	// Latency and the ladder swing with the host's load from run to run,
	// far past any bound a gate could hold, so they are reported here,
	// with the layers, rather than gated.
	o := ph.outcome(5)
	b.set("req_p50_ms", "ms", median(o.windowP50))
	b.set("req_p99_ms", "ms", ms(o.p99))
	for _, s := range ph.sessions {
		first, last := time.Duration(-1), time.Duration(0)
		for _, r := range ph.reqs {
			if r.sess == s && r.issued {
				if first < 0 || r.start < first {
					first = r.start
				}
				if r.end > last {
					last = r.end
				}
			}
		}
		if first >= 0 {
			tr.add(s.span, 0, "session", phaseStart.Add(first), phaseStart.Add(last))
		}
	}

	// The service layer, from its own histograms and counters.
	b.set("service.create_p50_us", "us", float64(st.Latency["create"].P50Us))
	b.set("service.mutate_p50_us", "us", float64(st.Latency["mutate"].P50Us))
	b.set("service.analyze_p50_us", "us", float64(st.Latency["analyze"].P50Us))
	client50 := map[string][]float64{}
	var late, wait []float64
	for _, r := range ph.reqs {
		late = append(late, ms(r.late))
		if r.issued {
			wait = append(wait, ms(r.start-r.due-r.late))
		}
		if r.ok {
			client50[stepNames[r.step]] = append(client50[stepNames[r.step]], us(r.end-r.start))
		}
	}
	var outside, n float64
	for ep, xs := range client50 {
		outside += float64(len(xs)) * (median(xs) - float64(st.Latency[ep].P50Us))
		n += float64(len(xs))
	}
	b.set("service.outside_p50_us", "us", outside/n)
	b.set("service.queue_depth_max", "count", float64(depth))
	b.set("service.shed", "count", float64(st.Admission.Shed))
	b.set("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	b.set("loadgen.queue_wait_p99_ms", "ms", quantile(wait, 0.99))
	if st.Journal == nil || st.Journal.Fsyncs == 0 {
		return fmt.Errorf("the reference server reports no journal activity")
	}
	b.set("journal.batch_factor", "ratio", float64(st.Journal.Appended)/float64(st.Journal.Fsyncs))
	b.set("journal.snapshots", "count", float64(st.Journal.Snapshots))

	l := newLadder()
	for i := 0; i < ladderProbes && !l.done(); i++ {
		if err := sr.probe(l, fmt.Sprintf("ladder-%d", i), budget*4/10/ladderProbes); err != nil {
			return err
		}
	}
	b.set("max_rate_rps", "1/s", l.best)

	dir := filepath.Join(b.work, "ref")
	if err := sr.journalLayer(dir, ph); err != nil {
		return err
	}
	var recovered cost
	tr.time("service.recover", 0, func(int64) {
		recovered, err = sr.recover(dir, true)
	})
	if err != nil {
		return err
	}
	tr.count("serve.recover_cpu_s", recovered.cpu.Seconds())
	return sr.sessionLayer()
}

func fetchStats(c *http.Client, base string) (*service.StatsResponse, error) {
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// record mirrors the service's journal record, so the replayed stream has
// the served run's record sizes.
type record struct {
	Kind    string                 `json:"kind"`
	Session string                 `json:"session"`
	Name    string                 `json:"name,omitempty"`
	Create  *service.CreateRequest `json:"create,omitempty"`
	Ops     []service.MutateOp     `json:"ops,omitempty"`
}

type snapshotSession struct {
	ID     string                `json:"id"`
	Name   string                `json:"name"`
	Create service.CreateRequest `json:"create"`
	Ops    []service.MutateOp    `json:"ops,omitempty"`
}

// journalLayer measures the journal on its own: opening the run's journal,
// replaying the phase's acknowledged records through Append from as many
// appenders as the load had connections, and snapshots of the final
// state's size.
func (sr *serveRun) journalLayer(runDir string, ph *phase) error {
	b, tr := sr.b, sr.b.tr
	var opens []time.Duration
	for i := 0; i < 3; i++ {
		var err error
		opens = append(opens, tr.time("journal.open", 0, func(int64) {
			var j *journal.Journal
			if j, _, err = journal.Open(runDir); err == nil {
				err = j.Close()
			}
		}))
		if err != nil {
			return err
		}
	}
	b.set("journal.open_ms", "ms", ms(medianDur(opens)))
	var size int64
	entries, err := os.ReadDir(runDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	b.set("journal.bytes", "bytes", float64(size))

	// The acknowledged records in acknowledgement order.
	var payloads [][]byte
	acked := append([]*loadReq(nil), ph.reqs...)
	sort.Slice(acked, func(i, j int) bool { return acked[i].end < acked[j].end })
	for _, r := range acked {
		if !r.ok || r.step == steps-1 {
			continue
		}
		s := r.sess
		rec := record{Kind: "mutate", Session: s.id, Ops: []service.MutateOp{s.planned[max(r.step-1, 0)]}}
		if r.step == 0 {
			rec = record{Kind: "create", Session: s.id, Name: fmt.Sprintf("wc-%d", s.idx),
				Create: &service.CreateRequest{Name: fmt.Sprintf("wc-%d", s.idx), Spec: wordcountSpec}}
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		payloads = append(payloads, data)
	}
	j, _, err := journal.Open(filepath.Join(b.work, "append-replay"))
	if err != nil {
		return err
	}
	lat := make([]float64, len(payloads))
	next := make(chan int, len(payloads)) // every record index, queued up front
	for i := range payloads {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	errs := make(chan error, runtime.GOMAXPROCS(0))
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var err error
				lat[i] = us(tr.time("journal.append", 0, func(int64) { _, err = j.Append(payloads[i]) }))
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	b.set("journal.append_p50_us", "us", quantile(lat, 0.50))
	b.set("journal.append_p99_us", "us", quantile(lat, 0.99))

	doc := struct {
		NextID   int               `json:"next_id"`
		Sessions []snapshotSession `json:"sessions"`
	}{NextID: len(sr.sessions)}
	for _, s := range sr.sessions {
		if s.created {
			doc.Sessions = append(doc.Sessions, snapshotSession{ID: s.id, Name: fmt.Sprintf("wc-%d", s.idx),
				Create: service.CreateRequest{Name: fmt.Sprintf("wc-%d", s.idx), Spec: wordcountSpec}, Ops: s.acked})
		}
	}
	snap, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	var snaps []time.Duration
	for i := 0; i < 3; i++ {
		if _, err := j.Append(payloads[i%len(payloads)]); err != nil {
			return err
		}
		snaps = append(snaps, tr.time("journal.snapshot", 0, func(int64) { err = j.Snapshot(snap) }))
		if err != nil {
			return err
		}
	}
	b.set("journal.snapshot_ms", "ms", ms(medianDur(snaps)))
	tr.count("journal.snapshot_bytes", float64(len(snap)))
	return j.Close()
}

// sessionLayer replays every acknowledged op stream in process, through the
// same exported calls the server's recovery uses, and encodes each report
// the way the server writes it. The encoding must match the served bytes.
func (sr *serveRun) sessionLayer() error {
	b, tr := sr.b, sr.b.tr
	var create, apply, analyze, encode []float64
	var replay time.Duration
	for _, s := range sr.sessions {
		if !s.created {
			continue
		}
		root := tr.newID()
		t0 := time.Now()
		var (
			sess *blazes.Session
			err  error
		)
		req := service.CreateRequest{Name: fmt.Sprintf("wc-%d", s.idx), Spec: wordcountSpec}
		d := tr.time("session.create", root, func(int64) { sess, err = req.NewSession() })
		if err != nil {
			return err
		}
		create = append(create, us(d))
		replay += d
		for _, op := range s.acked {
			d := tr.time("session.apply", root, func(int64) { err = op.Apply(sess) })
			if err != nil {
				return err
			}
			apply = append(apply, us(d))
			replay += d
		}
		var rep *blazes.Report
		analyze = append(analyze, us(tr.time("session.analyze", root, func(int64) { rep, err = sess.Analyze(context.Background()) })))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		encode = append(encode, us(tr.time("report.encode", root, func(int64) {
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			err = enc.Encode(rep)
		})))
		if err != nil {
			return err
		}
		tr.add(root, 0, "session.replay", t0, time.Now())
		if s.report != nil {
			b.check(bytes.Equal(buf.Bytes(), s.report), "session %s: in-process replay differs from the served analysis", s.id)
		}
	}
	b.set("session.create_us", "us", median(create))
	b.set("session.apply_us", "us", median(apply))
	b.set("session.analyze_us", "us", median(analyze))
	b.set("report.encode_us", "us", median(encode))
	b.set("session.replay_ms", "ms", ms(replay))
	return nil
}
