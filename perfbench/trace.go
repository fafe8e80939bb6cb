package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary. Spans of one request or pass share a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use (the load generator's workers record spans).
type tracer struct {
	on     bool // off: spans are timed but not kept
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextID int64
	counts map[string]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), counts: map[string]float64{}}
}

// newID reserves a span id, so children can name their parent before the
// parent's span ends.
func (t *tracer) newID() int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add stores a finished span under a reserved id.
func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUs: start.Sub(t.t0).Microseconds(), EndUs: end.Sub(t.t0).Microseconds(),
	})
}

// record stores a finished span and returns its id.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	id := t.newID()
	t.add(id, parent, name, start, end)
	return id
}

// time runs fn as a span named name under parent and returns its
// duration; fn receives the span's id for its children.
func (t *tracer) time(name string, parent int64, fn func(id int64)) time.Duration {
	id := t.newID()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.add(id, parent, name, start, end)
	return end.Sub(start)
}

// count records a counter the program exposes (or the benchmark counted)
// next to the spans.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// allocCounter reads cumulative heap allocation and GC CPU time from
// runtime/metrics, for per-call allocation and GC-share figures.
type allocSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

func readAlloc() allocSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return allocSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status, in
// bytes.
func procStatus(pid, key string) int64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) == 0 {
			return 0
		}
		kb, _ := strconv.ParseInt(fields[0], 10, 64)
		return kb << 10
	}
	return 0
}

// selfPeakRSS is this process's peak resident set size in bytes.
func selfPeakRSS() int64 { return procStatus("self", "VmHWM") }

// taskCPU is the CPU time a process's live threads have run so far, in
// nanoseconds, from /proc/<pid>/task/*/schedstat.
func taskCPU(pid int) time.Duration {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			total += time.Duration(ns)
		}
	}
	return total
}
