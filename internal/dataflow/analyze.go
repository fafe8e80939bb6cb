package dataflow

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// ComponentAnalysis records the derivation performed at one component: the
// inference steps for every (input label × path) pair and the per-output
// reconciliation, in the notation of Section V-A4.
type ComponentAnalysis struct {
	Name string
	// Steps lists every inference step performed at the component.
	Steps []core.Step
	// Reconciliations maps each output interface to its Figure 10 run.
	Reconciliations map[string]core.Reconciliation
	// OutputLabels maps each output interface to its merged label.
	OutputLabels map[string]core.Label

	// builtBy tags the engine pass that assembled this record; see
	// Incremental.Analyze.
	builtBy uint64
}

// Analysis is the result of analyzing a dataflow graph: a label for every
// stream, the derivation at every component, and the overall verdict (the
// worst label on any sink stream, or on any stream if there are no sinks).
type Analysis struct {
	Graph *Graph
	// Collapsed is the graph actually analyzed (after cycle collapse);
	// identical to Graph when the dataflow has no interface-level cycles.
	Collapsed *Graph
	// StreamLabels maps stream name → derived label.
	StreamLabels map[string]core.Label
	// Components maps component name → its derivation record (names refer
	// to the collapsed graph; supernodes are named "scc+A+B").
	Components map[string]*ComponentAnalysis
	// Verdict is the highest-severity label among sink streams.
	Verdict core.Label
}

// streamIndex precomputes per-(component, interface) stream lists so the
// label propagation does not rescan the whole stream list at every node.
// Slices preserve declaration order, matching StreamsInto/StreamsOutOf.
type streamIndex struct {
	into  map[[2]string][]*Stream
	outOf map[[2]string][]*Stream
}

func indexStreams(g *Graph) *streamIndex {
	idx := &streamIndex{
		into:  map[[2]string][]*Stream{},
		outOf: map[[2]string][]*Stream{},
	}
	for _, s := range g.Streams() {
		if !s.IsSink() {
			k := [2]string{s.ToComp, s.ToIface}
			idx.into[k] = append(idx.into[k], s)
		}
		if !s.IsSource() {
			k := [2]string{s.FromComp, s.FromIface}
			idx.outOf[k] = append(idx.outOf[k], s)
		}
	}
	return idx
}

// Analyze runs the Blazes analysis over g from scratch: validate, collapse
// cycles, propagate labels over output interfaces in topological order
// (inference per path, reconciliation per output interface, merge), and
// compute the verdict. It is one full pass of a fresh Incremental engine
// over g, which it does not mutate.
func Analyze(g *Graph) (*Analysis, error) {
	a, _, err := NewIncremental(g).Analyze(context.Background())
	return a, err
}

// outputTopoOrder returns the OUT interface nodes of the (acyclic) collapsed
// graph in topological order using Kahn's algorithm over the interface
// graph. The ready set is a min-heap ordered by less(), so each pop yields
// the lexicographically least ready node — the same order the previous
// implementation produced by re-sorting a slice on every push, but in
// O(E log V) instead of O(V·E log E).
func outputTopoOrder(g *Graph) []ifaceNode {
	ig := buildIfaceGraph(g)
	indeg := make(map[ifaceNode]int, len(ig.nodes))
	for _, n := range ig.nodes {
		indeg[n] += 0
	}
	for _, vs := range ig.adj {
		for _, w := range vs {
			indeg[w]++
		}
	}
	heap := make(ifaceHeap, 0, len(ig.nodes))
	for _, n := range ig.nodes {
		if indeg[n] == 0 {
			heap.push(n)
		}
	}
	outs := make([]ifaceNode, 0, len(ig.nodes)/2+1)
	for len(heap) > 0 {
		v := heap.pop()
		if v.out {
			outs = append(outs, v)
		}
		for _, w := range ig.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				heap.push(w)
			}
		}
	}
	return outs
}

// ifaceHeap is a binary min-heap of interface nodes ordered by less().
// Hand-rolled (rather than container/heap) to keep the hot path free of
// interface boxing and per-op allocations.
type ifaceHeap []ifaceNode

func (h *ifaceHeap) push(n ifaceNode) {
	*h = append(*h, n)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *ifaceHeap) pop() ifaceNode {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(s) && less(s[left], s[smallest]) {
			smallest = left
		}
		if right < len(s) && less(s[right], s[smallest]) {
			smallest = right
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return min
}

// gatherInputs appends to buf the labels feeding comp's output interface,
// path by path in declaration order: one per stream into the path's input
// (Async for a stream not yet labeled), or a single Async for an
// unconnected input.
func gatherInputs(buf []core.Label, comp *Component, iface string, idx *streamIndex, labels map[string]core.Label) []core.Label {
	for _, p := range comp.Paths {
		if p.To != iface {
			continue
		}
		streams := idx.into[[2]string{comp.Name, p.From}]
		if len(streams) == 0 {
			buf = append(buf, core.Async)
		}
		for _, s := range streams {
			l, ok := labels[s.Name]
			if !ok {
				l = core.Async
			}
			buf = append(buf, l)
		}
	}
	return buf
}

// deriveOutput performs the derivation for one output interface: inference
// per (input label × path), then reconciliation, then the mechanism floor.
// in is the interface's gatherInputs result and outReps reports whether
// any stream leaving it is replicated. Incremental.Analyze calls it for
// every interface it cannot serve from its memo.
func deriveOutput(comp *Component, iface string, idx *streamIndex, in []core.Label, outReps bool) (steps []core.Step, rec core.Reconciliation, out core.Label) {
	coordinated := comp.Coordination == CoordSequenced || comp.Coordination == CoordDynamicOrder ||
		comp.Coordination == CoordQuorumOrder || comp.Coordination == CoordMergeRewrite

	var merged []core.Label
	for _, p := range comp.Paths {
		if p.To != iface {
			continue
		}
		ann := p.Ann
		if coordinated && ann.OrderSensitive() {
			// A total order over inputs (M1/M2/M1q) or a commutative merge
			// in place of the fold (merge rewrite) removes order
			// sensitivity: the path behaves as its confluent counterpart.
			// (M2's residual cross-run nondeterminism is reapplied below.)
			ann = core.Annotation{Confluent: true, Write: ann.Write}
		}
		info := core.PathInfo{Ann: ann, Deps: comp.Deps}
		n := max(1, len(idx.into[[2]string{comp.Name, p.From}]))
		for _, l := range in[:n] {
			step := core.InferInfo(l, info)
			steps = append(steps, step)
			merged = append(merged, step.Out)
		}
		in = in[n:]
	}
	var outSchema fd.AttrSet
	if comp.OutSchema != nil {
		outSchema = comp.OutSchema[iface]
	}
	rec = core.ReconcileWithSchema(merged, comp.Rep || outReps, comp.Deps, outSchema)

	out = rec.Output
	// M2 (dynamic ordering) fixes order within a run only: contents remain
	// nondeterministic across runs (Figure 5).
	if comp.Coordination == CoordDynamicOrder && out.Severity() < core.Run.Severity() {
		out = core.Run
	}
	return steps, rec, out
}

func (a *Analysis) verdict(g *Graph) core.Label {
	verdict := core.Label{Kind: core.LNDRead}
	found := false
	consider := func(l core.Label) {
		if !found || l.Severity() > verdict.Severity() {
			verdict, found = l, true
		}
	}
	for _, s := range g.Streams() {
		if s.IsSink() {
			if l, ok := a.StreamLabels[s.Name]; ok {
				consider(l)
			}
		}
	}
	if !found {
		for _, s := range g.Streams() {
			if l, ok := a.StreamLabels[s.Name]; ok {
				consider(l)
			}
		}
	}
	if !found {
		return core.Async
	}
	return verdict
}

// sourceLabel derives the initial label of an external input stream.
func sourceLabel(s *Stream) core.Label {
	if !s.Seal.IsEmpty() {
		return core.SealOn(s.Seal)
	}
	return core.Async
}

// Label returns the derived label of the named stream.
func (a *Analysis) Label(stream string) core.Label { return a.StreamLabels[stream] }

// Deterministic reports whether the whole dataflow is guaranteed to produce
// deterministic output contents (verdict at most Async).
func (a *Analysis) Deterministic() bool {
	return a.Verdict.Severity() <= core.Async.Severity()
}

// Explain renders the full derivation: per component (in name order), each
// inference step and reconciliation, then stream labels and verdict.
func (a *Analysis) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataflow %q\n", a.Graph.Name)
	names := make([]string, 0, len(a.Components))
	for n := range a.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ca := a.Components[n]
		fmt.Fprintf(&b, "\ncomponent %s\n", n)
		for _, st := range ca.Steps {
			fmt.Fprintf(&b, "  %s\n", st)
		}
		for _, iface := range sortedRecKeys(ca.Reconciliations) {
			rec := ca.Reconciliations[iface]
			fmt.Fprintf(&b, "  output %s: %s\n", iface, indent(rec.String(), "  "))
		}
	}
	fmt.Fprintf(&b, "\nstreams\n")
	streams := make([]string, 0, len(a.StreamLabels))
	for s := range a.StreamLabels {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	for _, s := range streams {
		fmt.Fprintf(&b, "  %-20s %s\n", s, a.StreamLabels[s])
	}
	fmt.Fprintf(&b, "\nverdict: %s\n", a.Verdict)
	return b.String()
}

func sortedRecKeys(m map[string]core.Reconciliation) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func indent(s, pad string) string {
	return strings.ReplaceAll(s, "\n", "\n"+pad)
}
