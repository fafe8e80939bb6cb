package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"blazes"
	"blazes/service"
)

// The serve part: an open loop of interleaved wordcount sessions against a
// durable server in its own process. Each session is create → 4 mutate →
// analyze. Arrivals are a seeded Poisson process, sent over at most
// GOMAXPROCS connections, and every request is timed from the moment it
// was due, so a stall counts against every request queued behind it.

const (
	// refRate is the reference request rate of req_p50_ms and req_p99_ms.
	refRate = 1000.0
	// p99Limit is the latency limit max_rate_rps is held to.
	p99Limit = 50 * time.Millisecond
	// ladderStep is the ratio between neighbouring rates of the ladder
	// max_rate_rps searches; its rungs are refRate·ladderStep^k for
	// k in [ladderLow, ladderHigh], about 500 to 10000 requests a second.
	// ladderProbes bounds the probes of one search, retries included.
	ladderStep   = 1.1
	ladderLow    = -7
	ladderHigh   = 24
	ladderProbes = 10
	// interleave is the number of sessions whose steps alternate: a
	// session's next request is due about interleave arrivals after its
	// previous one.
	interleave = 8
	// steps per session: create, four mutates, analyze.
	steps       = 6
	maxSessions = 1 << 20 // no evictions during a run
	warmup      = 150 * time.Millisecond
	// giveUp is how late a request may be before the generator drops it
	// as failed instead of sending it, so an overloaded probe ends about
	// when its arrivals do rather than after draining its backlog.
	giveUp = time.Second
)

// wordcountSpec is the Storm wordcount of the paper's Section VI-A1.
const wordcountSpec = `Splitter:
  annotation: { from: tweets, to: words, label: CR }
Count:
  annotation: { from: words, to: counts, label: OW, subscript: [word, batch] }
Commit:
  annotation: { from: counts, to: db, label: CW }
topology:
  sources:
    - { name: tweets, to: Splitter.tweets }
  streams:
    - { name: words, from: Splitter.words, to: Count.words }
    - { name: counts, from: Count.counts, to: Commit.counts }
  sinks:
    - { name: db, from: Commit.db }
`

// opPool holds the mutations sessions draw from: sealing and unsealing the
// tweet stream on batch, and choosing Count's annotation between the
// paper's OW_{word,batch} and a confluent CW. The Splitter and Commit
// re-annotations restate the paper's own labels.
var opPool = []service.MutateOp{
	{Op: "seal", Stream: "tweets", Key: []string{"batch"}},
	{Op: "seal", Stream: "tweets"},
	{Op: "annotate", Component: "Count", From: "words", To: "counts", Label: "OW", Subscript: []string{"word", "batch"}},
	{Op: "annotate", Component: "Count", From: "words", To: "counts", Label: "CW"},
	{Op: "annotate", Component: "Splitter", From: "tweets", To: "words", Label: "CR"},
	{Op: "annotate", Component: "Commit", From: "counts", To: "db", Label: "CW"},
}

// expectedVerdict is the wordcount verdict after a session's acknowledged
// ops, derived by hand from Section VI-A1 and the reduction rules of
// Figure 9:
//
//   - unsealed tweets, Count OW_{word,batch}: Async × OW ⇒ Taint (Rule 2);
//     the component is not replicated, so the sink is Run.
//   - tweets sealed on batch, Count OW_{word,batch}: the seal key is
//     compatible with the gate, the seal is consumed and counts is Async.
//   - unsealed, Count CW: every path is confluent, so db stays Async.
//   - sealed on batch, Count CW: confluent paths carry the seal, so db is
//     Seal_batch.
func expectedVerdict(acked []service.MutateOp) (kind string, key []string) {
	sealed, countOW := false, true
	for _, op := range acked {
		switch {
		case op.Op == "seal":
			sealed = len(op.Key) > 0
		case op.Op == "annotate" && op.Component == "Count":
			countOW = op.Label == "OW"
		}
	}
	switch {
	case countOW && !sealed:
		return "Run", nil
	case countOW && sealed:
		return "Async", nil
	case !sealed:
		return "Async", nil
	default:
		return "Seal", []string{"batch"}
	}
}

// loadSession is one client session and its acknowledged history.
type loadSession struct {
	idx     int
	planned [steps - 2]service.MutateOp
	span    int64 // tracer id of the session, when traced

	// Written by the worker running the session's current step; steps of
	// one session run in order (done[k] closes before step k+1 starts).
	id      string
	created bool
	acked   []service.MutateOp
	report  []byte // the analyze response body
	done    [steps]chan struct{}
}

// loadReq is one scheduled request and, once sent, its outcome. Offsets
// are from the phase start.
type loadReq struct {
	sess             *loadSession
	step             int
	due, late        time.Duration
	start, end       time.Duration
	ok, shed, issued bool
}

type phase struct {
	rate     float64
	window   time.Duration
	reqs     []*loadReq
	sessions []*loadSession
}

// schedule draws a phase's arrivals and session plans from rng. Arrivals
// continue past window until the last group of interleaved sessions is
// complete.
func schedule(rng *rand.Rand, rate float64, window time.Duration, first int) *phase {
	ph := &phase{rate: rate, window: window}
	var t time.Duration
	for i := 0; ; i++ {
		if i%(steps*interleave) == 0 {
			if t >= window {
				break
			}
			for k := 0; k < interleave; k++ {
				s := &loadSession{idx: first + len(ph.sessions)}
				for j := range s.planned {
					s.planned[j] = opPool[rng.Intn(len(opPool))]
				}
				for j := range s.done {
					s.done[j] = make(chan struct{})
				}
				ph.sessions = append(ph.sessions, s)
			}
		}
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		g, r := i/(steps*interleave), i%(steps*interleave)
		ph.reqs = append(ph.reqs, &loadReq{
			sess: ph.sessions[g*interleave+r%interleave],
			step: r / interleave,
			due:  t,
		})
	}
	return ph
}

// loadClient sends a phase's requests over at most GOMAXPROCS
// connections.
type loadClient struct {
	base   string
	client *http.Client
	tr     *tracer // nil when untraced
}

func newLoadClient(base string, tr *tracer) *loadClient {
	n := runtime.GOMAXPROCS(0)
	return &loadClient{base: base, tr: tr, client: &http.Client{
		Timeout: 20 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}}
}

// run drives the phase open-loop: a dispatcher releases each request at
// its due time (never waiting on the server), and GOMAXPROCS workers send
// them in due order.
func (c *loadClient) run(ph *phase) {
	queue := make(chan *loadReq, len(ph.reqs)) // holds every request, so the dispatcher never blocks
	start := time.Now()
	go func() {
		for _, r := range ph.reqs {
			if d := r.due - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			r.late = time.Since(start) - r.due
			queue <- r
		}
		close(queue)
	}()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				c.send(r, start)
			}
		}()
	}
	wg.Wait()
}

var stepNames = [steps]string{"create", "mutate", "mutate", "mutate", "mutate", "analyze"}

func (c *loadClient) send(r *loadReq, start time.Time) {
	s := r.sess
	if r.step > 0 {
		<-s.done[r.step-1]
	}
	defer close(s.done[r.step])
	if (r.step > 0 && !s.created) || time.Since(start)-r.due > giveUp {
		// The create failed, so nothing else of the session can be sent,
		// or the request is hopelessly late; either way it counts as
		// failed.
		r.start, r.end = time.Since(start), time.Since(start)
		return
	}
	var (
		url  string
		body any
	)
	switch {
	case r.step == 0:
		url = c.base + "/v1/sessions"
		body = service.CreateRequest{Name: fmt.Sprintf("wc-%d", s.idx), Spec: wordcountSpec}
	case r.step < steps-1:
		url = c.base + "/v1/sessions/" + s.id + "/mutate"
		body = service.MutateRequest{Ops: []service.MutateOp{s.planned[r.step-1]}}
	default:
		url = c.base + "/v1/sessions/" + s.id + "/analyze"
	}
	r.issued = true
	t0 := time.Now()
	r.start = t0.Sub(start)
	code, data, err := post(c.client, url, body)
	t1 := time.Now()
	r.end = t1.Sub(start)
	if c.tr != nil {
		c.tr.record("http."+stepNames[r.step], s.span, t0, t1)
	}
	if err != nil {
		return
	}
	r.shed = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
	switch {
	case r.step == 0 && code == http.StatusCreated:
		var info service.SessionInfo
		if json.Unmarshal(data, &info) == nil && info.Session != "" {
			s.id, s.created, r.ok = info.Session, true, true
		}
	case r.step < steps-1 && code == http.StatusOK:
		s.acked = append(s.acked, s.planned[r.step-1])
		r.ok = true
	case r.step == steps-1 && code == http.StatusOK:
		s.report, r.ok = data, true
	}
}

// post sends body as JSON (an empty POST when body is nil) and returns
// the status and response body.
func post(client *http.Client, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	resp, err := client.Post(url, "application/json", rd)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// outcome summarizes a finished phase.
type outcome struct {
	// p99 is the median over the phase's windows of each window's p99
	// latency, timed from due time; a failed request counts as infinitely
	// late.
	p99                  time.Duration
	windowP50, windowP99 []float64 // each window's percentiles, in ms
	completed            int
	failed               int
	shed                 int
	// backlog is the median over the windows of the requests due by a
	// window's end but not finished then.
	backlog    int
	throughput float64 // completed requests per second of the phase
}

// outcome takes the latency percentiles of each of windows equal slices
// of the phase separately and reports their medians, so one stall of the
// host does not decide the run.
func (ph *phase) outcome(windows int) outcome {
	var o outcome
	lat := make([][]float64, windows)
	var last time.Duration
	for _, r := range ph.reqs {
		w := min(int(int64(r.due)*int64(windows)/int64(ph.window)), windows-1)
		if r.shed {
			o.shed++
		}
		if !r.ok {
			o.failed++
			lat[w] = append(lat[w], math.Inf(1))
			continue
		}
		o.completed++
		lat[w] = append(lat[w], float64(r.end-r.due))
		if r.end > last {
			last = r.end
		}
	}
	var p50, p99, backlog []float64
	for w, xs := range lat {
		end := ph.window * time.Duration(w+1) / time.Duration(windows)
		n := 0
		for _, r := range ph.reqs {
			if r.due <= end && r.end > end {
				n++
			}
		}
		backlog = append(backlog, float64(n))
		p50 = append(p50, quantile(xs, 0.50))
		p99 = append(p99, quantile(xs, 0.99))
		o.windowP50 = append(o.windowP50, ms(time.Duration(p50[w])))
		o.windowP99 = append(o.windowP99, ms(time.Duration(p99[w])))
	}
	o.p99 = time.Duration(median(p99))
	o.backlog = int(median(backlog))
	if last > 0 {
		o.throughput = float64(o.completed) / last.Seconds()
	}
	return o
}

// passes reports whether a ladder rung meets the latency limit with no
// failure, no shed request and no growing backlog (no more than the
// limit's worth of offered load queued at the end of a typical window).
func (o outcome) passes(rate float64) bool {
	return o.failed == 0 && o.shed == 0 && o.p99 <= p99Limit &&
		float64(o.backlog) <= rate*p99Limit.Seconds()
}

// serverProc is a `service` server in a child process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
}

// startServer starts a durable server on journal dir and waits until it
// has recovered and listens.
func startServer(dir string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve-child", dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		stdin.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("server did not announce its address: %v", err)
	}
	return &serverProc{cmd: cmd, stdin: stdin, base: "http://" + strings.TrimSpace(line)}, nil
}

// stop asks the server to shut down (closing its stdin) and waits for it.
func (p *serverProc) stop() error {
	p.stdin.Close()
	return p.cmd.Wait()
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// serveChild is the server process: service.Open on the journal
// directory, loopback HTTP, and a clean shutdown when stdin closes.
func serveChild(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench serve-child: need the journal directory")
		return 2
	}
	srv, err := service.Open(service.Options{JournalDir: args[0], MaxSessions: maxSessions})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve-child: %v\n", err)
		return 1
	}
	if err := srv.WaitRecovered(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve-child: %v\n", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve-child: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Println(ln.Addr().String())
	_, _ = io.Copy(io.Discard, os.Stdin) // returns when the parent closes stdin
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	code := 0
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve-child: shutdown: %v\n", err)
		code = 1
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench serve-child: %v\n", err)
		code = 1
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench serve-child: closing journal: %v\n", err)
		code = 1
	}
	return code
}

// serveRun holds one run of the serve part.
type serveRun struct {
	b        *bench
	rng      *rand.Rand
	sessions []*loadSession // every session of the reference server
	setups   []time.Duration
}

// boot starts a server on a fresh journal directory and warms it with a
// short burst at the reference rate, whose sessions join the run's.
func (sr *serveRun) boot(name string, tr *tracer) (*serverProc, []*loadSession, error) {
	dir := filepath.Join(sr.b.work, name)
	start := time.Now()
	p, err := startServer(dir)
	if err != nil {
		return nil, nil, err
	}
	ph := schedule(sr.rng, refRate, warmup, 0)
	newLoadClient(p.base, tr).run(ph)
	sr.setups = append(sr.setups, time.Since(start))
	sr.count(ph)
	return p, ph.sessions, nil
}

// count records a phase's requests as operations and checks every
// analyzed session's verdict against the hand-written table.
func (sr *serveRun) count(ph *phase) {
	for _, r := range ph.reqs {
		sr.b.op(r.ok)
	}
	for _, s := range ph.sessions {
		if s.report == nil {
			continue
		}
		rep, err := blazes.DecodeReport(s.report)
		kind, key := expectedVerdict(s.acked)
		sr.b.check(err == nil && rep.Verdict.Kind == kind && strings.Join(rep.Verdict.Key, ",") == strings.Join(key, ","),
			"session %s: verdict %v after ops %v, want %s%v", s.id, verdictOf(rep), s.acked, kind, key)
	}
}

func verdictOf(rep *blazes.Report) any {
	if rep == nil {
		return nil
	}
	return rep.Verdict
}

// serveRunner measures the serve part in rounds. Each round of the first
// half runs one slice (one and a half times a round's budget) of the
// reference rate on the reference server; the journal it leaves is then
// recovered again and again for half of each round's budget through the
// second half, so recovery samples, like every other metric's, are spread
// over the run rather than bunched at its end.
//
// Latency and the ladder are measured only in the traced pass and not
// gated: on a 2-CPU VM a slow spell of the shared host lasts minutes and
// doubles latencies or halves the highest passing rate, which no bound of
// at most 25% between runs can hold.
type serveRunner struct {
	*serveRun
	ref    *serverProc
	client *loadClient
	p50    []float64 // median latency per reference slice, in ms, for the log
	cpu    []float64 // server CPU per 1000 requests, per slice, in ms
	recovs []cost
}

func newServeRunner(b *bench) runner {
	return &serveRunner{serveRun: &serveRun{b: b, rng: rand.New(rand.NewSource(b.seed))}}
}

func (r *serveRunner) setUp() error {
	p, warm, err := r.boot("ref", nil)
	if err != nil {
		return err
	}
	r.ref, r.client, r.sessions = p, newLoadClient(p.base, nil), warm
	return nil
}

func (r *serveRunner) round(i int, budget time.Duration) error {
	if i < rounds/2 {
		return r.load(budget * 3 / 2)
	}
	if err := r.stopRef(); err != nil {
		return err
	}
	deadline := time.Now().Add(budget / 2)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		c, err := r.recover(filepath.Join(r.b.work, "ref"), len(r.recovs) == 0)
		if err != nil {
			return err
		}
		r.recovs = append(r.recovs, c)
	}
	return nil
}

// load runs one slice of the reference rate on the reference server.
func (r *serveRunner) load(budget time.Duration) error {
	ph := schedule(r.rng, refRate, budget, len(r.sessions))
	cpu0 := taskCPU(r.ref.pid())
	r.client.run(ph)
	cpu := taskCPU(r.ref.pid()) - cpu0
	r.count(ph)
	r.sessions = append(r.sessions, ph.sessions...)
	o := ph.outcome(1)
	r.p50 = append(r.p50, o.windowP50...)
	r.cpu = append(r.cpu, ms(cpu)/(float64(o.completed)/1000))
	return nil
}

// stopRef stops the reference server, once, keeping its peak memory.
func (r *serveRunner) stopRef() error {
	if r.ref == nil {
		return nil
	}
	r.b.serverPeakRSS = procStatus(fmt.Sprint(r.ref.pid()), "VmHWM")
	err := r.ref.stop()
	r.ref = nil
	if err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	return nil
}

func (r *serveRunner) finish() error {
	b := r.b
	if len(r.recovs) == 0 {
		return fmt.Errorf("no recovery was measured")
	}
	b.logf("samples: slice p50 ms %.3f, server CPU ms per 1000 requests %.1f, recovery CPU %v, recovery wall %v", r.p50, r.cpu, cpus(r.recovs), walls(r.recovs))
	b.set("server_cpu_ms_per_kreq", "ms", median(r.cpu))
	b.set("recover_cpu_s", "s", medianDur(cpus(r.recovs)).Seconds())
	b.setup += medianDur(r.setups)
	return nil
}

func (r *serveRunner) stop() {
	if r.ref != nil {
		_ = r.ref.stop() // the run already failed; this only ends the server
	}
}

// ladder is the binary search for max_rate_rps. A rung that fails is
// probed once more before the search takes it as failing, since a slow
// spell of the host fails rungs a quiet host passes.
type ladder struct {
	lo, hi int     // rungs known to pass and to fail
	failed []int   // rungs that failed once
	best   float64 // throughput at the highest passing rung
}

func newLadder() *ladder { return &ladder{lo: ladderLow - 1, hi: ladderHigh + 1} }

func (l *ladder) done() bool { return l.hi-l.lo <= 1 }

// probe runs the search's next rung for window on a fresh server.
func (sr *serveRun) probe(l *ladder, name string, window time.Duration) error {
	k := (l.lo + l.hi) / 2
	again := slices.Contains(l.failed, k)
	rate := refRate * math.Pow(ladderStep, float64(k))
	p, _, err := sr.boot(name, nil)
	if err != nil {
		return err
	}
	ph := schedule(sr.rng, rate, window, 0)
	newLoadClient(p.base, nil).run(ph)
	if err := p.stop(); err != nil {
		return fmt.Errorf("ladder server: %w", err)
	}
	sr.count(ph)
	o := ph.outcome(3)
	pass := o.passes(rate)
	sr.b.logf("ladder %.0f req/s: p99 %s (windows %v), %d failed, %d shed, backlog %d: pass=%v", rate, o.p99, o.windowP99, o.failed, o.shed, o.backlog, pass)
	switch {
	case pass:
		l.lo, l.best = k, o.throughput
	case again:
		l.hi = k
	default:
		l.failed = append(l.failed, k)
	}
	return nil
}

func tracedServe(b *bench, budget time.Duration) error {
	sr := &serveRun{b: b, rng: rand.New(rand.NewSource(b.seed))}
	return sr.traced(budget)
}

// recover reopens the reference journal in process (service.Open →
// WaitRecovered) on a collected heap. With check, every session's
// analysis must then be byte-identical to the one the server returned
// before the restart.
func (sr *serveRun) recover(dir string, check bool) (cost, error) {
	runtime.GC()
	var (
		srv *service.Server
		err error
	)
	c := costOf(func() {
		if srv, err = service.Open(service.Options{JournalDir: dir, MaxSessions: maxSessions}); err == nil {
			err = srv.WaitRecovered(context.Background())
		}
	})
	if err != nil {
		return cost{}, err
	}
	if check {
		h := srv.Handler()
		for _, s := range sr.sessions {
			if s.report == nil {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+s.id+"/analyze", nil))
			sr.b.check(rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), s.report),
				"recovered session %s: analysis differs from the one served before the restart (status %d)", s.id, rec.Code)
		}
	}
	return c, srv.Close()
}
