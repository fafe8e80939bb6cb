// Command perfbench is the Blazes benchmark: one program that measures the
// three things Blazes is used for and checks their outputs.
//
//   - serve: an open-loop load of wordcount sessions against a durable
//     `service` server (journal on disk, loopback HTTP), then recovery of
//     that journal by a fresh server.
//   - analyze: a generated 10k-component topology taken from spec text to
//     an encoded report, repaired, and re-analyzed incrementally by a
//     Session after leaf-annotation flips.
//   - figures: a reduced Figure 11 sweep and Figures 12–14 on the
//     simulated substrate.
//
// Every run drives all three parts, each in a process of its own, so every
// run prints every metric; the --workload flag names the part that gets 40%
// of the --seconds budget (the other two get 30% each). With --trace 1 the
// parts are timed layer by layer instead: the program prints per-layer
// metrics and writes its spans next to the work directory.
//
// Usage (normally through run.py, which builds this program first):
//
//	perfbench --workload serve-journal --seed 1 --seconds 30 --trace 0 --work DIR
//
// The last line of standard output is the result object. Exit status is 0
// when every correctness check held, 1 when one failed, 2 on a usage or
// set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// runner is one part of the benchmark. An untraced run sets every part up,
// then measures in rounds — each round gives every part one slice of its
// time budget — so a slow spell of the host lands on a few samples of
// every metric rather than on all samples of one.
type runner interface {
	setUp() error
	round(i int, budget time.Duration) error
	finish() error
	// stop releases what the part holds (its servers) if it did not
	// finish.
	stop()
}

// rounds is the number of slices each part's untraced budget is cut into.
const rounds = 10

// part is one measured section of the benchmark: its untraced runner and
// its traced pass, which times every layer once through.
type part struct {
	workload string
	untraced func(b *bench) runner
	traced   func(b *bench, budget time.Duration) error
}

var parts = []part{
	{"serve-journal", newServeRunner, tracedServe},
	{"figures-sim", newFiguresRunner, tracedFigures},
	{"analyze-gen10k", newAnalyzeRunner, tracedAnalyze},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve-child":
			os.Exit(serveChild(os.Args[2:]))
		case "part":
			os.Exit(partChild(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "part that gets 40% of the time budget: serve-journal, analyze-gen10k or figures-sim")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "measuring time of the whole run, in seconds")
	trace := fs.Int("trace", 0, "1 times every layer and prints per-layer metrics")
	work := fs.String("work", "", "scratch directory for journals and traces (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	home := -1
	for i, p := range parts {
		if p.workload == *workload {
			home = i
		}
	}
	if home < 0 || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload serve-journal|analyze-gen10k|figures-sim, --seconds > 0, --trace 0|1 and --work DIR")
		return 2
	}
	total := time.Duration(*seconds) * time.Second
	budget := func(i int) time.Duration {
		if i == home {
			return total * 4 / 10
		}
		return total * 3 / 10
	}
	res, err := measure(*seed, *work, *trace == 1, time.Now(), budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *trace == 1 {
		path := filepath.Join(filepath.Dir(*work), fmt.Sprintf("trace-%s-s%d.json", *workload, *seed))
		data, err := json.Marshal(map[string]any{"spans": res.Spans, "counters": res.Counts})
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
		res.Metrics["trace.overhead_ratio"] = metricValue{float64(res.OverheadTraced) / float64(res.OverheadPlain), "ratio"}
	} else {
		res.Metrics["setup_s"] = metricValue{res.Setup.Seconds(), "s"}
		res.Metrics["peak_rss_mb"] = metricValue{float64(res.PeakRSS) / (1 << 20), "MB"}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.Broken) == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(out))
	if len(res.Broken) > 0 {
		for _, msg := range res.Broken {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
		}
		return 1
	}
	return 0
}

// bench accumulates one run's results.
type bench struct {
	seed   int64
	work   string
	traced bool

	metrics   map[string]metricValue
	attempted int
	failed    int
	// broken lists failed correctness checks; any one fails the run.
	broken []string
	// setup sums each part's median set-up time.
	setup         time.Duration
	serverPeakRSS int64
	tr            *tracer
	name          string // the part, in log lines
	// overheadPlain and overheadTraced time the same work without and
	// with spans, for the tracing overhead.
	overheadPlain, overheadTraced time.Duration
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.check(false, "metric %s is not a finite number", name)
		v = 0
	}
	b.metrics[name] = metricValue{v, unit}
	b.tr.count(name, v)
}

// op counts one attempted operation of the system under test.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// check counts one correctness check as an operation; a failed check
// fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	b.op(ok)
	if !ok {
		b.broken = append(b.broken, fmt.Sprintf(format, args...))
	}
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.1fs %s: "+format+"\n", append([]any{time.Since(b.tr.t0).Seconds(), b.name}, args...)...)
}

// quantile returns the q-quantile of xs (nearest rank); xs is sorted in
// place. Infinite values stand for operations that failed.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDur is the median of a list of durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// timeIt runs fn and returns its wall time.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// processCPU is the CPU time every thread of this process has run so far.
// Time spent waiting for a CPU, including time the hypervisor gives to
// other guests, is not counted.
func processCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cost is what one measured call took: wall time, and the CPU time of
// this process (the call and the garbage collector working for it).
type cost struct{ wall, cpu time.Duration }

// costOf runs fn and returns its cost.
func costOf(fn func()) cost {
	c0, w0 := processCPU(), time.Now()
	fn()
	return cost{time.Since(w0), processCPU() - c0}
}

// walls and cpus list the wall and CPU times of a list of costs.
func walls(cs []cost) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.wall
	}
	return out
}

func cpus(cs []cost) []time.Duration {
	out := make([]time.Duration, len(cs))
	for i, c := range cs {
		out[i] = c.cpu
	}
	return out
}
