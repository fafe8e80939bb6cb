package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"blazes"
	"blazes/internal/dataflow"
	"blazes/topogen"
)

// The analyze part: a generated 10k-component topology, taken from spec
// text to an encoded report one-shot, repaired, and re-analyzed by a
// Session after each leaf-annotation flip. Every step is repeated warm and
// reported as a median.

const genComponents = 10_000

// flipAnns are the two annotations the flip target alternates between.
var flipAnns = [2]blazes.Annotation{blazes.ORStar(), blazes.CW}

type analyzeRun struct {
	b     *bench
	name  string
	text  string        // the run's generated spec
	graph *blazes.Graph // built from text, never mutated
	sess  *blazes.Session
	// specs holds every set-up's spec text (text first); the repairs
	// take them in turn, each on a graph built anew, so the part does
	// not hold every topology's graph for the whole run.
	specs    []string
	repaired int
	target   string
	refs     [2][]byte         // one-shot reports of the two flip states
	prev     [2]*blazes.Report // the session's last report in each state
	setups   []time.Duration
	ctx      context.Context
	flipped  int
}

// setUp generates a topology, builds its graph and opens a session on it:
// the work a user pays before the first answer. The first set-up uses the
// run's seed and keeps its session for the flips; each later one
// generates another topology from a seed derived from the run's, for the
// repairs to rotate over.
func (ar *analyzeRun) setUp(parent int64) error {
	tr := ar.b.tr
	start := time.Now()
	var (
		res topogen.Result
		err error
	)
	seed := ar.b.seed + int64(len(ar.specs))<<32
	tr.time("topogen.generate", parent, func(int64) { res, err = topogen.Generate(topogen.Default(genComponents, seed)) })
	if err != nil {
		return err
	}
	sp, err := blazes.ParseSpec(res.Spec)
	if err != nil {
		return err
	}
	g, err := sp.Graph(ar.name)
	if err != nil {
		return err
	}
	var sess *blazes.Session
	open := tr.time("session.open", parent, func(int64) {
		if sess, err = blazes.OpenSession(g); err == nil {
			_, err = sess.Analyze(ar.ctx)
		}
	})
	if err != nil {
		return err
	}
	ar.setups = append(ar.setups, time.Since(start))
	st := res.Stats
	ar.b.check(len(g.Components()) == st.Components && len(g.Streams()) == st.Streams+st.Sources+st.Sinks,
		"generated graph (seed %d) has %d components and %d streams, topogen.Stats says %d and %d+%d+%d",
		seed, len(g.Components()), len(g.Streams()), st.Components, st.Streams, st.Sources, st.Sinks)
	ar.specs = append(ar.specs, res.Spec)
	if len(ar.specs) == 1 {
		ar.text, ar.graph, ar.sess = res.Spec, g, sess
	}
	if ar.b.traced {
		ar.b.set("session.open_ms", "ms", ms(open))
	}
	return nil
}

// flipTarget picks the last (highest-named) component touching no cycle
// stream, so a flip never lands inside a supernode — the choice the
// repository's BenchmarkSessionReanalyze10k makes.
func flipTarget(g *blazes.Graph) string {
	cyclic := map[string]bool{}
	for _, st := range g.Streams() {
		if strings.HasPrefix(st.Name, "cf") || strings.HasPrefix(st.Name, "cb") || strings.HasPrefix(st.Name, "gossip") {
			cyclic[st.FromComp] = true
			cyclic[st.ToComp] = true
		}
	}
	var target string
	for _, c := range g.Components() {
		if !cyclic[c.Name] && c.Name > target {
			target = c.Name
		}
	}
	return target
}

// oneShot takes the spec text to an encoded report with the flip target
// in the given state: parse, build, analyze, project, encode.
func (ar *analyzeRun) oneShot(state int, parent int64) (cost, []byte, error) {
	tr := ar.b.tr
	var (
		data []byte
		err  error
		c    cost
	)
	tr.time("oneshot", parent, func(id int64) {
		c = costOf(func() {
			var sp *blazes.Spec
			tr.time("spec.parse", id, func(int64) { sp, err = blazes.ParseSpec(ar.text) })
			if err != nil {
				return
			}
			var g *blazes.Graph
			tr.time("spec.graph", id, func(int64) { g, err = sp.Graph(ar.name) })
			if err != nil {
				return
			}
			g.Lookup(ar.target).SetPathAnn("in", "out", flipAnns[state])
			var res *blazes.Result
			tr.time("dataflow.analyze", id, func(int64) { res, err = blazes.NewAnalyzer().Analyze(g) })
			if err != nil {
				return
			}
			var rep *blazes.Report
			tr.time("report.project", id, func(int64) { rep = res.Report() })
			tr.time("report.encode", id, func(int64) { data, err = json.Marshal(rep) })
		})
	})
	return c, data, err
}

// flip flips the target to the given state, re-analyzes, and checks that
// the session's report encodes byte-identically to the one-shot report of
// that state. The first flip into each state compares encoded bytes; the
// others compare the report, field by field, with the session's report
// from two flips earlier (the same state, already shown equal), which is
// equality with the one-shot report by transitivity. checkLast encodes the
// final report of each state once more.
func (ar *analyzeRun) flip(state int, parent int64) (cost, error) {
	tr := ar.b.tr
	var (
		rep *blazes.Report
		err error
		c   cost
	)
	tr.time("flip", parent, func(id int64) {
		c = costOf(func() {
			tr.time("session.annotate", id, func(int64) { err = ar.sess.Annotate(ar.target, "in", "out", flipAnns[state]) })
			if err == nil {
				tr.time("session.analyze", id, func(int64) { rep, err = ar.sess.Analyze(ar.ctx) })
			}
		})
	})
	if err != nil {
		return cost{}, err
	}
	ar.flipped++
	plain := *rep
	plain.Delta = nil // a one-shot report has no delta section
	prev := ar.prev[state]
	if prev == nil {
		data, err := json.Marshal(&plain)
		if err != nil {
			return cost{}, err
		}
		ar.b.check(bytes.Equal(data, ar.refs[state]), "flip %d: session report differs from the one-shot report", ar.flipped)
	} else {
		ar.b.check(reflect.DeepEqual(&plain, prev), "flip %d: session report differs from the one-shot report", ar.flipped)
	}
	ar.prev[state] = &plain
	return c, nil
}

func (ar *analyzeRun) checkLast() error {
	for state, rep := range ar.prev {
		data, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		ar.b.check(bytes.Equal(data, ar.refs[state]), "after %d flips: session report differs from the one-shot report", ar.flipped)
	}
	return nil
}

// repair runs the default (M2) repair on the next set-up topology, on a
// graph built from its spec before the timing starts. Figure 5 allows
// M2 to leave Run but not Inst or Diverge; a repair that ends above Run is
// logged with its verdict and residual streams (the traced run reports
// both as metrics). The call itself completes, so it counts as an
// operation that did not fail.
func (ar *analyzeRun) repair(parent int64) (cost, *blazes.Result, error) {
	var (
		res *blazes.Result
		err error
		c   cost
	)
	sp, err := blazes.ParseSpec(ar.specs[ar.repaired%len(ar.specs)])
	if err != nil {
		return cost{}, nil, err
	}
	g, err := sp.Graph(ar.name)
	if err != nil {
		return cost{}, nil, err
	}
	ar.repaired++
	ar.b.tr.time("repair", parent, func(int64) {
		c = costOf(func() { res, err = blazes.NewAnalyzer().Repair(g) })
	})
	if err != nil {
		return cost{}, nil, err
	}
	ar.b.op(true)
	if res.Verdict().Severity() > blazes.Run.Severity() {
		ar.b.logf("repair ended at %s after %d strategies with %d streams Run or worse: outside the M2 allowance (at most Run)",
			res.Verdict(), len(res.Strategies()), residualStreams(res))
	}
	return c, res, nil
}

// residualStreams counts the streams still labelled Run or worse.
func residualStreams(res *blazes.Result) int {
	n := 0
	for _, l := range res.Analysis().StreamLabels {
		if l.Severity() >= blazes.Run.Severity() {
			n++
		}
	}
	return n
}

// prepare sets the part up (setups times, for a median) and checks the
// generated graph against the generator's own statistics.
func (ar *analyzeRun) prepare(setups int) error {
	for i := 0; i < setups; i++ {
		if err := ar.setUp(0); err != nil {
			return err
		}
	}
	ar.b.setup += medianDur(ar.setups)
	if ar.target = flipTarget(ar.graph); ar.target == "" {
		return fmt.Errorf("no acyclic component to flip")
	}
	return nil
}

func newAnalyzeRun(b *bench) *analyzeRun {
	return &analyzeRun{b: b, name: fmt.Sprintf("gen%d-s%d", genComponents, b.seed), ctx: context.Background()}
}

// analyzeRunner measures the analyze part in rounds: a one-shot analysis
// in even rounds (of both flip states in the first), a repair in odd
// rounds — each of the set-up topologies once — and flips in every round.
type analyzeRunner struct {
	*analyzeRun
	analyses, repairs []cost
	flips             []float64 // CPU ms per flip
	flipWalls         []float64 // wall ms per flip, for the log
	flipRounds        []float64 // each round's median flip CPU, for the log
}

func newAnalyzeRunner(b *bench) runner { return &analyzeRunner{analyzeRun: newAnalyzeRun(b)} }

// repairTopologies is how many topologies an untraced run sets up: one
// per odd round, each repaired once. A repair's time differs from
// topology to topology by up to half, so repair_cpu_s is the mean over
// the topologies rather than one topology's time.
const repairTopologies = rounds / 2

// flipPace sets the flips of a round: one per flipPace of its budget. The
// count is fixed, not a deadline, so the share of flips that meet a
// garbage collection is the same from run to run.
const flipPace = 45 * time.Millisecond

func (r *analyzeRunner) setUp() error { return r.prepare(repairTopologies) }

func (r *analyzeRunner) stop() {}

// oneShotAt times one one-shot analysis; each state's first report is the
// reference later analyses and flips must match.
func (r *analyzeRunner) oneShotAt(state int) error {
	c, data, err := r.oneShot(state, 0)
	if err != nil {
		return err
	}
	if r.refs[state] == nil {
		r.refs[state] = data
	}
	r.b.check(bytes.Equal(data, r.refs[state]), "one-shot analysis %d is not deterministic", len(r.analyses))
	r.analyses = append(r.analyses, c)
	return nil
}

func (r *analyzeRunner) round(i int, budget time.Duration) error {
	if i == 0 {
		if err := r.oneShotAt(1); err != nil {
			return err
		}
	}
	if i%2 == 0 {
		if err := r.oneShotAt(i / 2 % 2); err != nil {
			return err
		}
	} else {
		c, _, err := r.repair(0)
		if err != nil {
			return err
		}
		r.repairs = append(r.repairs, c)
	}
	// The flips start on a collected heap, not in the middle of a cycle
	// the analysis or repair left behind.
	runtime.GC()
	first := len(r.flips)
	for n := 0; n < max(10, int(budget/flipPace)); n++ {
		c, err := r.flip(r.flipped%2, 0)
		if err != nil {
			return err
		}
		r.flips = append(r.flips, ms(c.cpu))
		r.flipWalls = append(r.flipWalls, ms(c.wall))
	}
	r.flipRounds = append(r.flipRounds, median(append([]float64(nil), r.flips[first:]...)))
	return nil
}

func (r *analyzeRunner) finish() error {
	if err := r.checkLast(); err != nil {
		return err
	}
	b := r.b
	b.set("analyze_cpu_s", "s", medianDur(cpus(r.analyses)).Seconds())
	var repairs time.Duration
	for _, c := range r.repairs {
		repairs += c.cpu
	}
	b.set("repair_cpu_s", "s", (repairs / time.Duration(len(r.repairs))).Seconds())
	b.set("flip_cpu_p50_ms", "ms", quantile(r.flips, 0.50))
	b.set("flip_cpu_p95_ms", "ms", quantile(r.flips, 0.95))
	b.logf("samples: one-shot CPU %v wall %v, repair CPU %v wall %v, per-round flip median CPU ms %.2f (%d flips, median wall %.2f ms)",
		cpus(r.analyses), walls(r.analyses), cpus(r.repairs), walls(r.repairs), r.flipRounds, len(r.flips), median(r.flipWalls))
	return nil
}

func tracedAnalyze(b *bench, budget time.Duration) error {
	ar := newAnalyzeRun(b)
	if err := ar.prepare(1); err != nil {
		return err
	}
	return ar.traced(budget)
}

// traced runs the same steps once or a few times each, with every layer
// timed, plus one untimed-layer one-shot analysis to price the tracing.
func (ar *analyzeRun) traced(budget time.Duration) error {
	b, tr := ar.b, ar.b.tr
	deadline := time.Now().Add(budget)
	var parse, graph, analyze, project, encode, allocMB []float64
	var gcCPU, totalCPU float64
	var last time.Duration
	for i := 0; i < 2; i++ {
		before := len(tr.spans)
		a0 := readAlloc()
		c, data, err := ar.oneShot(i, 0)
		last = c.wall
		a1 := readAlloc()
		if err != nil {
			return err
		}
		ar.refs[i] = data
		gcCPU += a1.gcCPU - a0.gcCPU
		totalCPU += a1.totalCPU - a0.totalCPU
		for _, s := range tr.spans[before:] {
			d := float64(s.EndUs-s.StartUs) / 1000
			switch s.Name {
			case "spec.parse":
				parse = append(parse, d)
			case "spec.graph":
				graph = append(graph, d)
			case "dataflow.analyze":
				analyze = append(analyze, d)
			case "report.project":
				project = append(project, d)
			case "report.encode":
				encode = append(encode, d)
			}
		}
		// Allocation of the analysis alone, measured on its own call.
		sp, err := blazes.ParseSpec(ar.text)
		if err != nil {
			return err
		}
		g, err := sp.Graph(ar.name)
		if err != nil {
			return err
		}
		m0 := readAlloc()
		if _, err := blazes.NewAnalyzer().Analyze(g); err != nil {
			return err
		}
		allocMB = append(allocMB, (readAlloc().allocBytes-m0.allocBytes)/(1<<20))
	}
	b.set("spec.parse_ms", "ms", median(parse))
	b.set("spec.graph_ms", "ms", median(graph))
	b.set("dataflow.analyze_ms", "ms", median(analyze))
	b.set("dataflow.analyze_alloc_mb", "MB", median(allocMB))
	b.set("go.gc_cpu_frac", "ratio", gcCPU/totalCPU)
	b.set("report.project_ms", "ms", median(project))
	b.set("report.encode_ms", "ms", median(encode))
	b.set("report.bytes", "bytes", float64(len(ar.refs[0])))

	// Tracing overhead: the same one-shot pipeline without spans.
	plain := time.Now()
	if err := ar.plainOneShot(); err != nil {
		return err
	}
	b.overheadPlain += time.Since(plain)
	b.overheadTraced += last

	// One synthesis round and one application, then the whole repair.
	res, err := blazes.NewAnalyzer().Analyze(ar.graph)
	if err != nil {
		return err
	}
	var sts []blazes.Strategy
	syn := tr.time("dataflow.synthesize", 0, func(int64) { sts = dataflow.Synthesize(res.Analysis(), dataflow.SynthesisOptions{}) })
	app := tr.time("dataflow.apply", 0, func(int64) { dataflow.Apply(ar.graph, sts) })
	b.set("dataflow.synthesize_ms", "ms", ms(syn))
	b.set("dataflow.apply_ms", "ms", ms(app))
	_, rep, err := ar.repair(0)
	if err != nil {
		return err
	}
	b.set("dataflow.repair_strategies", "count", float64(len(rep.Strategies())))
	b.set("dataflow.repair_residual_streams", "count", float64(residualStreams(rep)))
	b.set("dataflow.repair_verdict_severity", "level", float64(rep.Verdict().Severity()))

	// Flips with the session's own counters.
	var annotate, analyzeMs, recomputed, reused, allocKB []float64
	for i := 0; i < 20 || time.Now().Before(deadline); i++ {
		before := len(tr.spans)
		a0 := readAlloc()
		if _, err := ar.flip(ar.flipped%2, 0); err != nil {
			return err
		}
		allocKB = append(allocKB, (readAlloc().allocBytes-a0.allocBytes)/1024)
		for _, s := range tr.spans[before:] {
			switch s.Name {
			case "session.annotate":
				annotate = append(annotate, float64(s.EndUs-s.StartUs))
			case "session.analyze":
				analyzeMs = append(analyzeMs, float64(s.EndUs-s.StartUs)/1000)
			}
		}
		ls := ar.sess.LastStats()
		recomputed = append(recomputed, float64(len(ls.Recomputed)))
		reused = append(reused, float64(ls.Reused))
	}
	if err := ar.checkLast(); err != nil {
		return err
	}
	rc, ru := median(recomputed), median(reused)
	b.set("session.annotate_us", "us", median(annotate))
	b.set("session.flip_analyze_ms", "ms", median(analyzeMs))
	b.set("session.recomputed", "count", rc)
	b.set("session.reused", "count", ru)
	b.set("session.useful_ratio", "ratio", rc/(rc+ru))
	b.set("session.flip_alloc_kb", "KB", median(allocKB))
	return nil
}

// plainOneShot is oneShot's pipeline with no spans, for the overhead
// comparison.
func (ar *analyzeRun) plainOneShot() error {
	sp, err := blazes.ParseSpec(ar.text)
	if err != nil {
		return err
	}
	g, err := sp.Graph(ar.name)
	if err != nil {
		return err
	}
	g.Lookup(ar.target).SetPathAnn("in", "out", flipAnns[1])
	res, err := blazes.NewAnalyzer().Analyze(g)
	if err != nil {
		return err
	}
	_, err = json.Marshal(res.Report())
	return err
}
