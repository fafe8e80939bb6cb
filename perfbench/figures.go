package main

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"blazes/experiments"
	"blazes/internal/adtrack"
	"blazes/internal/bloom"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
	"blazes/internal/storm"
	"blazes/internal/wc"
)

// The figures part: a fixed reduced Figure 11 sweep (both commit modes,
// two cluster sizes) and reduced Figures 12, 13 and 14, through the
// public experiments package with its default pool of GOMAXPROCS workers.

func fig11Config(seed int64) experiments.Fig11Config {
	cfg := experiments.DefaultFig11()
	cfg.Seed = seed
	cfg.ClusterSizes = []int{5, 20}
	cfg.Duration = 100 * experiments.Millisecond
	cfg.Runs = 1
	cfg.Parallelism = -1
	return cfg
}

// adConfigs are Figures 12 (5 ad servers), 13 (10) and 14 (10, seal
// strategies only) at the reduced scale of `experiments -quick`.
func adConfigs(seed int64) []experiments.AdFigureConfig {
	base := experiments.AdFigureConfig{
		Seed: seed, EntriesPerServer: 150, Sleep: 50 * experiments.Millisecond, BatchSize: 10, Parallelism: -1,
	}
	fig12, fig13, fig14 := base, base, base
	fig12.AdServers, fig12.IncludeOrdered = 5, true
	fig13.AdServers, fig13.IncludeOrdered = 10, true
	fig14.AdServers = 10
	return []experiments.AdFigureConfig{fig12, fig13, fig14}
}

func runAdFigures(b *bench) error {
	for i, cfg := range adConfigs(b.seed) {
		fig, err := experiments.Fig12Or13(cfg)
		if err != nil {
			return err
		}
		for _, c := range fig.Curves {
			b.check(c.Series.Final() == fig.Total, "figure %d, %s: %d of %d records processed", 12+i, c.Label, c.Series.Final(), fig.Total)
		}
	}
	return nil
}

// checkFig11 holds the sweep to the paper's Figure 11 claim: sealed
// commits outrun transactional ones at every cluster size.
func checkFig11(b *bench, rows []experiments.Fig11Row) {
	for _, r := range rows {
		b.check(r.Sealed > r.Transactional, "figure 11, %d workers: sealed %.0f tuples/s does not beat transactional %.0f", r.Workers, r.Sealed, r.Transactional)
	}
}

// checkWordcount runs the sealed wordcount to completion and compares the
// committed counts with a count of the spout's words made here.
func checkWordcount(b *bench) error {
	rc := wc.RunConfig{
		Seed: b.seed, Workers: 5, Batches: 12, TuplesPerBatch: 40, WordsPerTweet: 4, VocabSize: 200,
		Mode: storm.CommitSealed, Punctuate: true,
	}
	res, err := wc.Run(rc)
	if err != nil {
		return err
	}
	spout := wc.TweetSpout{Batches: rc.Batches, TuplesPerBatch: rc.TuplesPerBatch, WordsPerTweet: rc.WordsPerTweet, Vocab: wc.SyntheticVocabulary(rc.VocabSize)}
	want := map[int64]map[string]int64{}
	for batch := int64(0); batch < rc.Batches; batch++ {
		want[batch] = map[string]int64{}
		for i := 0; i < rc.Workers; i++ {
			tuples, _ := spout.NextBatch(i, batch)
			for _, t := range tuples {
				for _, w := range strings.Fields(t[0]) {
					want[batch][w]++
				}
			}
		}
	}
	b.check(res.Done && reflect.DeepEqual(res.Store.Snapshot(), want), "sealed wordcount committed counts differ from the spout's words (done=%v)", res.Done)
	return nil
}

// figuresRunner measures the figures part in rounds: a Figure 11 sweep in
// even rounds, and Figure 12–14 sets for the rest of each slice.
type figuresRunner struct {
	b     *bench
	cfg   experiments.Fig11Config
	first []experiments.Fig11Row
	fig11 []time.Duration
	ad    []time.Duration
}

func newFiguresRunner(b *bench) runner { return &figuresRunner{b: b, cfg: fig11Config(b.seed)} }

// setUp has nothing to prepare; it runs the wordcount check, untimed.
func (r *figuresRunner) setUp() error { return checkWordcount(r.b) }

func (r *figuresRunner) stop() {}

func (r *figuresRunner) round(i int, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	if i%2 == 0 {
		var rows []experiments.Fig11Row
		var err error
		r.fig11 = append(r.fig11, timeIt(func() { rows, err = experiments.Fig11(r.cfg) }))
		if err != nil {
			return err
		}
		if r.first == nil {
			r.first = rows
			checkFig11(r.b, rows)
		}
		r.b.check(reflect.DeepEqual(rows, r.first), "figure 11 sweep %d differs from the first with the same seed", len(r.fig11))
	}
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		var err error
		r.ad = append(r.ad, timeIt(func() { err = runAdFigures(r.b) }))
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *figuresRunner) finish() error {
	r.b.set("fig11_s", "s", medianDur(r.fig11).Seconds())
	r.b.set("adfigs_s", "s", medianDur(r.ad).Seconds())
	r.b.logf("samples: figure 11 %v, %d figure 12–14 sets", r.fig11, len(r.ad))
	return nil
}

// fig11Engine is the storm configuration internal/experiments gives the
// Figure 11 cells; the traced composition must reproduce the sweep's rows
// exactly, which checks that the two stay equal.
func fig11Engine() storm.Config {
	cfg := storm.DefaultConfig()
	cfg.EmitInterval = 10 * sim.Microsecond
	cfg.PerTupleCost = 4 * sim.Microsecond
	cfg.BatchInterval = 10 * sim.Millisecond
	cfg.Sequencer.ProcessingCost = 450 * sim.Microsecond
	cfg.Sequencer.SubmitDelay = sim.LinkConfig{MinDelay: 2 * sim.Millisecond, MaxDelay: 5 * sim.Millisecond}
	cfg.Sequencer.DeliverDelay = sim.LinkConfig{MinDelay: 2 * sim.Millisecond, MaxDelay: 5 * sim.Millisecond}
	cfg.Link.MinDelay = 2 * sim.Millisecond
	cfg.Link.MaxDelay = 12 * sim.Millisecond
	cfg.Punctuate = true
	return cfg
}

// boltClock accumulates one stage's time inside bolt code, excluding the
// time its emits spend in the engine.
type boltClock struct{ busy time.Duration }

type timedBolt struct {
	inner storm.Bolt
	clock *boltClock
}

func (t timedBolt) run(call func(storm.Emitter), emit storm.Emitter) {
	var inEmit time.Duration
	start := time.Now()
	call(func(tu storm.Tuple) {
		e := time.Now()
		emit(tu)
		inEmit += time.Since(e)
	})
	t.clock.busy += time.Since(start) - inEmit
}

func (t timedBolt) Execute(tu storm.Tuple, emit storm.Emitter) {
	t.run(func(e storm.Emitter) { t.inner.Execute(tu, e) }, emit)
}

func (t timedBolt) FinishBatch(batch int64, emit storm.Emitter) {
	t.run(func(e storm.Emitter) { t.inner.FinishBatch(batch, e) }, emit)
}

// timedCommit is a timed committer bolt: storm finds the Commit method.
type timedCommit struct {
	timedBolt
	commit storm.Committer
}

func (t timedCommit) Commit(batch int64) {
	start := time.Now()
	t.commit.Commit(batch)
	t.clock.busy += time.Since(start)
}

// cell is one Figure 11 simulation and what it measured.
type cell struct {
	workers int
	mode    storm.CommitMode

	tput                 float64
	metrics              storm.Metrics
	events               uint64
	submitted            int
	start, end           time.Time
	wall                 time.Duration
	split, count, commit boltClock
}

// run builds the cell the way the sweep does — sim.New, storm.NewTopology
// and the wordcount bolts — optionally with every bolt timed.
func (c *cell) run(cfg experiments.Fig11Config, timed bool) error {
	start := time.Now()
	engine := fig11Engine()
	s := sim.New(cfg.Seed)
	spout := &wc.TweetSpout{
		Batches:        int64(cfg.Duration/engine.BatchInterval) + 8,
		TuplesPerBatch: cfg.TuplesPerBatch,
		WordsPerTweet:  cfg.WordsPerTweet,
		Vocab:          wc.SyntheticVocabulary(40 * c.workers),
	}
	store := wc.NewStore()
	wrap := func(bolt storm.Bolt, clock *boltClock) storm.Bolt {
		if !timed {
			return bolt
		}
		if cm, ok := bolt.(storm.Committer); ok {
			return timedCommit{timedBolt{bolt, clock}, cm}
		}
		return timedBolt{bolt, clock}
	}
	tp := storm.NewTopology(s, engine, c.mode)
	tp.SetSpout("tweets", spout, c.workers)
	tp.AddBolt("split", func(int) storm.Bolt { return wrap(wc.Splitter{}, &c.split) }, c.workers, storm.ShuffleGrouping{}, "tweets")
	tp.AddBolt("count", func(int) storm.Bolt { return wrap(wc.NewCount(), &c.count) }, c.workers, storm.FieldsGrouping{Fields: []int{0}}, "split")
	tp.AddCommitter("commit", func(int) storm.Bolt { return wrap(wc.NewCommit(store), &c.commit) }, c.workers, storm.FieldsGrouping{Fields: []int{0}}, "count")
	if err := tp.Start(); err != nil {
		return err
	}
	s.RunUntil(cfg.Duration)
	c.metrics = tp.Metrics()
	c.events = s.Steps()
	if seq := tp.Sequencer(); seq != nil {
		c.submitted = seq.Submitted()
	}
	c.tput = float64(c.metrics.AckedBatches) * float64(cfg.TuplesPerBatch) * float64(c.workers) / cfg.Duration.Seconds()
	c.start, c.end = start, time.Now()
	c.wall = c.end.Sub(start)
	return nil
}

// composeFig11 runs the sweep's cells on a pool of GOMAXPROCS workers and
// folds them into rows the way experiments.Fig11 does.
func composeFig11(cfg experiments.Fig11Config, timed bool) ([]*cell, []experiments.Fig11Row, error) {
	var cells []*cell
	for _, w := range cfg.ClusterSizes {
		for _, mode := range []storm.CommitMode{storm.CommitSealed, storm.CommitTransactional} {
			cells = append(cells, &cell{workers: w, mode: mode})
		}
	}
	errs := make([]error, len(cells))
	sim.NewPool(-1).Map(len(cells), func(i int) { errs[i] = cells[i].run(cfg, timed) })
	var rows []experiments.Fig11Row
	for i := 0; i < len(cells); i += 2 {
		if errs[i] != nil || errs[i+1] != nil {
			return nil, nil, fmt.Errorf("figure 11 cell: %v %v", errs[i], errs[i+1])
		}
		row := experiments.Fig11Row{Workers: cells[i].workers, Sealed: cells[i].tput, Transactional: cells[i+1].tput}
		if row.Transactional > 0 {
			row.Ratio = row.Sealed / row.Transactional
		}
		rows = append(rows, row)
	}
	return cells, rows, nil
}

// workCounts are the cells' summed work counters, which tracing must not
// change.
type workCounts struct{ tuples, acked, replays, submitted int }

func countsOf(cells []*cell) workCounts {
	var w workCounts
	for _, c := range cells {
		w.tuples += c.metrics.EmittedTuples
		w.acked += c.metrics.AckedBatches
		w.replays += c.metrics.Replays
		w.submitted += c.submitted
	}
	return w
}

func tracedFigures(b *bench, budget time.Duration) error {
	if err := checkWordcount(b); err != nil {
		return err
	}
	tr := b.tr
	cfg := fig11Config(b.seed)
	var rows []experiments.Fig11Row
	var err error
	a0 := readAlloc()
	tr.time("experiments.fig11", 0, func(int64) { rows, err = experiments.Fig11(cfg) })
	if err != nil {
		return err
	}
	b.set("fig11.alloc_mb", "MB", (readAlloc().allocBytes-a0.allocBytes)/(1<<20))

	var plainCells, cells []*cell
	var plainRows, tracedRows []experiments.Fig11Row
	plain := tr.time("compose.fig11.plain", 0, func(int64) { plainCells, plainRows, err = composeFig11(cfg, false) })
	if err != nil {
		return err
	}
	traced := tr.time("compose.fig11.traced", 0, func(id int64) {
		cells, tracedRows, err = composeFig11(cfg, true)
		for _, c := range cells {
			tr.record(fmt.Sprintf("cell.%s.w%d", c.mode, c.workers), id, c.start, c.end)
		}
	})
	if err != nil {
		return err
	}
	b.overheadPlain += plain
	b.overheadTraced += traced
	b.check(reflect.DeepEqual(plainRows, rows) && reflect.DeepEqual(tracedRows, rows),
		"the composed figure 11 rows differ from experiments.Fig11: %v / %v vs %v", plainRows, tracedRows, rows)
	pc, tc := countsOf(plainCells), countsOf(cells)
	b.check(pc == tc, "tracing changed the figure 11 work counts: %+v vs %+v", tc, pc)

	var split, count, commit, wall time.Duration
	var events uint64
	for _, c := range cells {
		split += c.split.busy
		count += c.count.busy
		commit += c.commit.busy
		wall += c.wall
		events += c.events
	}
	b.set("storm.bolt_ms.split", "ms", ms(split))
	b.set("storm.bolt_ms.count", "ms", ms(count))
	b.set("storm.bolt_ms.commit", "ms", ms(commit))
	b.set("storm.engine_ms", "ms", ms(wall-split-count-commit))
	b.set("sim.events", "count", float64(events))
	b.set("sim.events_per_s", "1/s", float64(events)/wall.Seconds())
	b.set("storm.tuples", "count", float64(tc.tuples))
	b.set("storm.acked_batches", "count", float64(tc.acked))
	b.set("storm.replays", "count", float64(tc.replays))
	b.set("coord.sequencer_submitted", "count", float64(tc.submitted))

	a0 = readAlloc()
	tr.time("experiments.adfigs", 0, func(int64) { err = runAdFigures(b) })
	if err != nil {
		return err
	}
	b.set("adfigs.alloc_mb", "MB", (readAlloc().allocBytes-a0.allocBytes)/(1<<20))
	return tracedBloom(b)
}

// tracedBloom drives the Figure 12 report module over the Figure 12 click
// workload directly: clicks and requests delivered in time order, one
// Node.Tick after each delivery and one Node.Digest after each tick.
func tracedBloom(b *bench) error {
	tr := b.tr
	cfg := adConfigs(b.seed)[0]
	mod, err := adtrack.ReportModule(dataflow.CAMPAIGN, 100)
	if err != nil {
		return err
	}
	n, err := bloom.NewNode("report0", mod)
	if err != nil {
		return err
	}
	w := adtrack.DefaultWorkload(cfg.AdServers, false)
	w.EntriesPerServer, w.BatchSize, w.Sleep = cfg.EntriesPerServer, cfg.BatchSize, cfg.Sleep
	type delivery struct {
		at         sim.Time
		collection string
		rows       []bloom.Row
	}
	var ds []delivery
	for _, burst := range w.Plan() {
		d := delivery{at: burst.At, collection: "click"}
		for _, c := range burst.Clicks {
			d.rows = append(d.rows, c.Row())
		}
		ds = append(ds, d)
	}
	for _, r := range w.RequestPlan(20, 500*sim.Millisecond) {
		ds = append(ds, delivery{at: r.At, collection: "request", rows: []bloom.Row{r.Row()}})
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].at < ds[j].at })
	var ticks, digests []float64
	root := tr.newID()
	start := time.Now()
	for _, d := range ds {
		if err := n.Deliver(d.collection, d.rows...); err != nil {
			return err
		}
		ticks = append(ticks, us(tr.time("bloom.tick", root, func(int64) { _, err = n.Tick() })))
		if err != nil {
			return err
		}
		digests = append(digests, us(tr.time("bloom.digest", root, func(int64) { n.Digest() })))
	}
	tr.add(root, 0, "bloom.fig12", start, time.Now())
	b.set("bloom.tick_us", "us", median(ticks))
	b.set("bloom.digest_us", "us", median(digests))
	b.set("bloom.ticks", "count", float64(n.Ticks()))
	return nil
}
