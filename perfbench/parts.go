package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Each part runs in a process of its own, so one part's heap and garbage
// collector never run during another's measurements, and each part's peak
// memory is its own. The parent only sends commands, one line each, and
// reads one JSON reply line per command:
//
//	setup             set the part up
//	round <i> <ns>    measure round i with a budget of ns nanoseconds
//	traced <ns>       time every layer once through, with a budget
//	finish            report the part's result
//
// A part process exits when its standard input closes.

// partResult is what a part reports when it finishes, and what the
// parent sums over the parts.
type partResult struct {
	Metrics        map[string]metricValue `json:"metrics"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Broken         []string               `json:"broken,omitempty"`
	Setup          time.Duration          `json:"setup_ns"`
	PeakRSS        int64                  `json:"peak_rss"` // the part's process and any server it ran
	OverheadPlain  time.Duration          `json:"overhead_plain_ns"`
	OverheadTraced time.Duration          `json:"overhead_traced_ns"`
	Spans          []span                 `json:"spans,omitempty"`
	Counts         map[string]float64     `json:"counts,omitempty"`
}

type partReply struct {
	Error  string      `json:"error,omitempty"`
	Result *partResult `json:"result,omitempty"`
}

// partProc is the parent's handle on one part process.
type partProc struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

func startPart(name string, seed int64, work string, traced bool, t0 time.Time) (*partProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "part", "-name", name, "-seed", strconv.FormatInt(seed, 10),
		"-work", work, "-trace", trace, "-t0", strconv.FormatInt(t0.UnixNano(), 10))
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
	return &partProc{name: name, cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}, nil
}

func (p *partProc) call(format string, args ...any) (*partResult, error) {
	if _, err := fmt.Fprintf(p.stdin, format+"\n", args...); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("%s: the part process ended: %w", p.name, err)
	}
	var reply partReply
	if err := json.Unmarshal(line, &reply); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	if reply.Error != "" {
		return nil, fmt.Errorf("%s: %s", p.name, reply.Error)
	}
	return reply.Result, nil
}

// stop closes the part's input, which ends it, and waits for it.
func (p *partProc) stop() error {
	p.stdin.Close()
	return p.cmd.Wait()
}

// measure runs every part in its own process — set up in turn, then
// measured in rounds, or traced once through — and sums their results.
func measure(seed int64, work string, traced bool, t0 time.Time, budget func(i int) time.Duration) (*partResult, error) {
	procs := make([]*partProc, 0, len(parts))
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	for _, p := range parts {
		proc, err := startPart(p.workload, seed, work, traced, t0)
		if err != nil {
			return nil, err
		}
		procs = append(procs, proc)
	}
	if traced {
		for i, p := range procs {
			if _, err := p.call("traced %d", budget(i)); err != nil {
				return nil, err
			}
		}
	} else {
		for _, p := range procs {
			if _, err := p.call("setup"); err != nil {
				return nil, err
			}
		}
		for r := 0; r < rounds; r++ {
			for i, p := range procs {
				if _, err := p.call("round %d %d", r, budget(i)/rounds); err != nil {
					return nil, err
				}
			}
		}
	}
	total := &partResult{Metrics: map[string]metricValue{}, Counts: map[string]float64{}}
	for i, p := range procs {
		res, err := p.call("finish")
		if err != nil {
			return nil, err
		}
		for k, v := range res.Metrics {
			total.Metrics[k] = v
		}
		for k, v := range res.Counts {
			total.Counts[k] = v
		}
		// Span ids are unique within a part; keep them unique across parts.
		offset := int64(i) << 40
		for _, s := range res.Spans {
			s.ID += offset
			if s.Parent != 0 {
				s.Parent += offset
			}
			total.Spans = append(total.Spans, s)
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Broken = append(total.Broken, res.Broken...)
		total.Setup += res.Setup
		total.PeakRSS += res.PeakRSS
		fmt.Fprintf(os.Stderr, "perfbench: %s: peak RSS %.1f MB\n", p.name, float64(res.PeakRSS)/(1<<20))
		total.OverheadPlain += res.OverheadPlain
		total.OverheadTraced += res.OverheadTraced
	}
	return total, nil
}

// partChild is a part process: it runs one part on the parent's commands.
func partChild(args []string) int {
	fs := flag.NewFlagSet("perfbench part", flag.ContinueOnError)
	name := fs.String("name", "", "the part")
	seed := fs.Int64("seed", 1, "input seed")
	work := fs.String("work", "", "scratch directory")
	trace := fs.Int("trace", 0, "1 for a traced pass")
	t0 := fs.Int64("t0", 0, "the run's start, in Unix nanoseconds, for span times")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var p *part
	for i := range parts {
		if parts[i].workload == *name {
			p = &parts[i]
		}
	}
	if p == nil {
		fmt.Fprintf(os.Stderr, "perfbench part: unknown part %q\n", *name)
		return 2
	}
	b := &bench{
		name:    *name,
		seed:    *seed,
		work:    *work,
		traced:  *trace == 1,
		metrics: map[string]metricValue{},
		tr:      newTracer(*trace == 1),
	}
	b.tr.t0 = time.Unix(0, *t0)
	var rn runner
	if !b.traced {
		rn = p.untraced(b)
		defer rn.stop()
	}
	in := bufio.NewScanner(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	for in.Scan() {
		var (
			f   = strings.Fields(in.Text())
			err error
			res *partResult
		)
		switch {
		case len(f) == 1 && f[0] == "setup" && rn != nil:
			err = rn.setUp()
		case len(f) == 3 && f[0] == "round" && rn != nil:
			i, _ := strconv.Atoi(f[1])
			ns, _ := strconv.ParseInt(f[2], 10, 64)
			err = rn.round(i, time.Duration(ns))
			runtime.GC() // leave no collection in flight for the next part
		case len(f) == 2 && f[0] == "traced" && rn == nil:
			ns, _ := strconv.ParseInt(f[1], 10, 64)
			err = p.traced(b, time.Duration(ns))
		case len(f) == 1 && f[0] == "finish":
			if rn != nil {
				err = rn.finish()
			}
			res = b.result()
		default:
			err = fmt.Errorf("unknown command %q", in.Text())
		}
		reply := partReply{Result: res}
		if err != nil {
			reply.Error = err.Error()
		}
		if err := out.Encode(reply); err != nil {
			return 1
		}
	}
	return 0
}

func (b *bench) result() *partResult {
	b.tr.mu.Lock()
	defer b.tr.mu.Unlock()
	return &partResult{
		Metrics: b.metrics, Attempted: b.attempted, Failed: b.failed, Broken: b.broken,
		Setup: b.setup, PeakRSS: selfPeakRSS() + b.serverPeakRSS,
		OverheadPlain: b.overheadPlain, OverheadTraced: b.overheadTraced,
		Spans: b.tr.spans, Counts: b.tr.counts,
	}
}
