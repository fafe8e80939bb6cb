package dataflow

import (
	"context"
	"fmt"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// Incremental is a dependency-tracked, memoized analysis engine over one
// mutable graph: the backbone of blazes.Session. The owner mutates the
// graph it registered, reports what changed through the Note* methods, and
// calls Analyze to re-derive labels; per-output-interface derivations are
// memoized against their exact inputs (path annotations, component config,
// incoming stream labels), so a mutation re-derives only its downstream
// closure — propagation stops as soon as a derived label comes out
// unchanged. Structural work (validation, cycle collapse, topological
// order, stream indexes) is cached across analyses and rebuilt only when a
// topology-changing mutation is noted, tracked by a graph version counter.
//
// Incremental is not safe for concurrent use; blazes.Session serializes
// access.
type Incremental struct {
	g *Graph

	// version counts noted mutations; analyzed is the version the last
	// completed Analyze observed. Equal versions mean the cached Analysis
	// is current.
	version  uint64
	analyzed uint64

	// Structure cache, valid while topoDirty is false.
	topoDirty bool
	collapsed *Graph
	order     []ifaceNode
	idx       *streamIndex
	// cyclic marks original components lying on interface-level cycles:
	// their annotations feed the collapse itself, so annotation changes on
	// them degrade to a structural rebuild.
	cyclic map[string]bool

	// Pending cheap syncs into the collapsed clone (when the collapse
	// produced a rewritten copy, its components/streams shadow the
	// originals and must track annotation/seal mutations).
	pendingComps   map[string]bool
	pendingStreams map[string]bool

	// memo holds the state of every output interface of the collapsed
	// graph; it survives structural rebuilds (pruned to the interfaces that
	// still exist), so a rebuild pass re-derives only what changed. nodes
	// holds the same states index-for-index with order.
	memo  map[[2]string]*ifaceMemo
	nodes []*ifaceMemo
	last  *Analysis
	// runSeq identifies each non-cached Analyze pass; ComponentAnalysis
	// records carry the pass that built them so an aborted pass can never
	// leave a half-built record that a later pass appends to twice.
	runSeq uint64
}

// memoVersions bounds the per-interface derivation cache.
const memoVersions = 4

// ifaceMemo is the engine's state for one output interface.
type ifaceMemo struct {
	// versions keeps up to memoVersions derivations, most-recently-used
	// first, so a session that flips an annotation and later flips it back
	// hits the cache in both directions.
	versions [memoVersions]*nodeMemo
	// stamped is the entry whose label was last written to the outgoing
	// streams; a hit on any other entry means the derivation changed and
	// must restamp and rebuild.
	stamped *nodeMemo
	// changed: the derivation changed since the last *completed* pass. A
	// cancelled pass updates memo state, so its changes must still be
	// reported (and their components' records rebuilt) by the pass that
	// eventually completes.
	changed bool
	// out lists the interface's outgoing streams in the collapsed graph.
	out []*Stream
}

// NodeRef identifies one output interface of the collapsed graph. Comp
// may be a supernode name ("scc+A+B") and Iface a member-qualified
// interface ("B.out"); both can contain dots, which is why the reference
// is structured rather than a joined string.
type NodeRef struct {
	Comp, Iface string
}

// Stats reports what one incremental Analyze actually did.
type Stats struct {
	// Rebuilt: this pass was a full (non-incremental) one — the structure
	// caches were rebuilt by this pass or by a cancelled pass since the
	// last completed analysis, so nothing from the previous analysis
	// (labels, records, projections) carries over.
	Rebuilt bool
	// Recomputed lists the collapsed-graph output interfaces whose
	// derivation record changed this round — freshly derived, or swapped
	// in from the version cache — in propagation order.
	Recomputed []NodeRef
	// Reused counts output interfaces served from the memo.
	Reused int
}

// nodeMemo captures one output interface's derivation together with the
// exact inputs it depends on; the entry is valid while every recorded
// dependency still matches.
type nodeMemo struct {
	paths     []Path
	coord     Coordination
	rep       bool
	deps      *fd.Set
	outSchema fd.AttrSet
	inLabels  []core.Label
	outReps   bool

	steps []core.Step
	rec   core.Reconciliation
	out   core.Label
}

func annEqual(a, b core.Annotation) bool {
	return a.Confluent == b.Confluent && a.Write == b.Write &&
		a.GateStar == b.GateStar && a.Gate.Equal(b.Gate)
}

func pathsEqual(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || !annEqual(a[i].Ann, b[i].Ann) {
			return false
		}
	}
	return true
}

func labelsEqual(a, b []core.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func (m *nodeMemo) valid(comp *Component, iface string, in []core.Label, outReps bool) bool {
	if m.coord != comp.Coordination || m.rep != comp.Rep || m.deps != comp.Deps || m.outReps != outReps {
		return false
	}
	var schema fd.AttrSet
	if comp.OutSchema != nil {
		schema = comp.OutSchema[iface]
	}
	return m.outSchema.Equal(schema) && pathsEqual(m.paths, comp.Paths) && labelsEqual(m.inLabels, in)
}

// NewIncremental wraps g (which the caller owns and mutates in place; every
// mutation must be reported through a Note* method before the next Analyze).
func NewIncremental(g *Graph) *Incremental {
	return &Incremental{
		g:              g,
		topoDirty:      true,
		pendingComps:   map[string]bool{},
		pendingStreams: map[string]bool{},
	}
}

// Graph returns the live graph. Mutations must be noted.
func (inc *Incremental) Graph() *Graph { return inc.g }

// Version returns the mutation counter (bumped once per noted change).
func (inc *Incremental) Version() uint64 { return inc.version }

// NoteTopologyChange records a structural mutation (components, paths or
// streams added/removed/replaced): the next Analyze revalidates and rebuilds
// the collapse, order and indexes.
func (inc *Incremental) NoteTopologyChange() {
	inc.version++
	inc.topoDirty = true
}

// NoteAnnotationChange records that the named component's path annotations
// changed in place (same path list, new annotations). Components on
// interface-level cycles degrade to a structural rebuild, because the
// collapsed annotation is derived from its cycle members.
func (inc *Incremental) NoteAnnotationChange(comp string) {
	inc.version++
	if inc.topoDirty {
		return
	}
	if inc.cyclic[comp] {
		inc.topoDirty = true
		return
	}
	inc.pendingComps[comp] = true
}

// NoteStreamChange records that the named stream's seal (or replication
// flag) changed in place.
func (inc *Incremental) NoteStreamChange(stream string) {
	inc.version++
	if !inc.topoDirty {
		inc.pendingStreams[stream] = true
	}
}

// ApplyStrategies marks each strategy's component with its mechanism — on
// the live graph (every member, for a supernode "scc+A+B") and on the
// collapsed node — without a structural rebuild: every member of a
// supernode gets the same mechanism, so the collapse's max over members is
// that mechanism too. A name that resolves only inside a supernode falls
// back to a rebuild. The next Analyze re-derives what the new coordination
// changes.
func (inc *Incremental) ApplyStrategies(strategies []Strategy) {
	inc.version++
	for _, st := range strategies {
		for _, c := range strategyTargets(inc.g, st.Component) {
			c.Coordination = st.Mechanism
		}
		if inc.topoDirty || inc.collapsed == inc.g {
			continue
		}
		if c := inc.collapsed.Lookup(st.Component); c != nil {
			c.Coordination = st.Mechanism
		} else {
			inc.topoDirty = true
		}
	}
}

// rebuildStructure revalidates and recomputes the collapse, topo order,
// stream index and cycle membership.
func (inc *Incremental) rebuildStructure() error {
	if err := inc.g.Validate(); err != nil {
		return err
	}
	cg, cyclic := collapseSCCs(inc.g)
	if cg != inc.g {
		if err := cg.Validate(); err != nil {
			return fmt.Errorf("dataflow: internal error: collapsed graph invalid: %w", err)
		}
	}
	inc.collapsed = cg
	inc.cyclic = cyclic
	inc.order = outputTopoOrder(cg)
	inc.idx = indexStreams(cg)

	// Carry over the state of output interfaces that still exist.
	memo := make(map[[2]string]*ifaceMemo, len(inc.order))
	inc.nodes = make([]*ifaceMemo, len(inc.order))
	for i, n := range inc.order {
		key := [2]string{n.comp, n.iface}
		st := inc.memo[key]
		if st == nil {
			st = &ifaceMemo{}
		}
		st.changed = false
		st.out = inc.idx.outOf[key]
		memo[key] = st
		inc.nodes[i] = st
	}
	inc.memo = memo

	clear(inc.pendingComps)
	clear(inc.pendingStreams)
	// The cached analysis indexes the old structure; the rebuild pass
	// restamps everything from scratch.
	inc.last = nil
	inc.topoDirty = false
	return nil
}

// applyPendingSyncs mirrors in-place annotation and seal mutations into the
// collapsed clone. When the collapse returned the original graph the clone
// IS the graph and nothing needs doing. The pending sets stay populated —
// Analyze consumes them (to restamp the affected source labels) and clears
// them once the pass is under way.
func (inc *Incremental) applyPendingSyncs() {
	if inc.collapsed == inc.g {
		return
	}
	//lint:allow maporder per-name sync of disjoint components; the lookups are read-only
	for name := range inc.pendingComps {
		orig := inc.g.Lookup(name)
		cc := inc.collapsed.Lookup(name)
		if orig == nil || cc == nil || len(cc.Paths) != len(orig.Paths) {
			// A component folded into a supernode (or out of sync): only
			// reachable if cycle membership changed without a topology
			// note — rebuild defensively.
			inc.topoDirty = true
			return
		}
		for i := range cc.Paths {
			cc.Paths[i].Ann = orig.Paths[i].Ann
		}
	}
	//lint:allow maporder per-name seal/rep sync of disjoint streams; the lookups are read-only
	for name := range inc.pendingStreams {
		if orig, cs := inc.g.Stream(name), inc.collapsed.Stream(name); orig != nil && cs != nil {
			cs.Seal = orig.Seal
			cs.Rep = orig.Rep
		}
	}
}

// Analyze re-derives the analysis, reusing every memoized derivation whose
// dependencies are unchanged. The result is identical to the first pass of
// a fresh engine over the current graph (which is what the package-level
// Analyze runs). The returned Analysis is owned by the
// engine: it is updated in place by the next Analyze, so callers must
// project what they need (labels, reports) before mutating further. ctx
// cancels between interface derivations.
//
// Invariant exploited by the in-place path: after every pass, each output
// interface's streams are stamped with the label of its `stamped` memo
// entry, so a hit on that same entry can skip stamping (and record
// rebuilding) entirely; a hit on any other cached version restamps and is
// reported as changed.
func (inc *Incremental) Analyze(ctx context.Context) (*Analysis, Stats, error) {
	var stats Stats
	if inc.last != nil && inc.version == inc.analyzed && !inc.topoDirty {
		stats.Reused = len(inc.order)
		return inc.last, stats, nil
	}

	if inc.topoDirty {
		if err := inc.rebuildStructure(); err != nil {
			return nil, stats, err
		}
	} else {
		inc.applyPendingSyncs()
		if inc.topoDirty { // defensive re-entry from applyPendingSyncs
			if err := inc.rebuildStructure(); err != nil {
				return nil, stats, err
			}
		}
	}

	cg := inc.collapsed
	inc.runSeq++
	// last survives only completed passes: rebuildStructure drops it, so
	// a rebuild performed by a *cancelled* pass still forces (and
	// reports) a full pass here.
	inPlace := inc.last != nil
	stats.Rebuilt = !inPlace
	a := inc.last
	if !inPlace {
		a = &Analysis{
			Graph:        inc.g,
			Collapsed:    cg,
			StreamLabels: make(map[string]core.Label, len(cg.Streams())),
			Components:   map[string]*ComponentAnalysis{},
		}
		for _, s := range cg.Streams() {
			if s.IsSource() {
				a.StreamLabels[s.Name] = sourceLabel(s)
			}
		}
	} else {
		// Only noted seal flips can move a source label.
		//lint:allow maporder each iteration writes its own StreamLabels slot
		for name := range inc.pendingStreams {
			if s := cg.Stream(name); s != nil && s.IsSource() {
				a.StreamLabels[name] = sourceLabel(s)
			}
		}
	}
	clear(inc.pendingComps)
	clear(inc.pendingStreams)

	var sig []core.Label // reused gather buffer
	for i, node := range inc.order {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		comp := cg.Lookup(node.comp)
		if comp == nil {
			continue
		}
		st := inc.nodes[i]
		sig = gatherInputs(sig[:0], comp, node.iface, inc.idx, a.StreamLabels)
		outReps := false
		for _, s := range st.out {
			if s.Rep {
				outReps = true
			}
		}

		// Look the signature up in the version cache (most-recently-used
		// first) and move a hit to the front.
		var m *nodeMemo
		for j, e := range st.versions {
			if e == nil {
				break
			}
			if e.valid(comp, node.iface, sig, outReps) {
				m = e
				copy(st.versions[1:j+1], st.versions[:j])
				st.versions[0] = m
				break
			}
		}
		if m != nil {
			stats.Reused++
		} else {
			steps, rec, out := deriveOutput(comp, node.iface, inc.idx, sig, outReps)
			var schema fd.AttrSet
			if comp.OutSchema != nil {
				schema = comp.OutSchema[node.iface]
			}
			m = &nodeMemo{
				paths:     append([]Path(nil), comp.Paths...),
				coord:     comp.Coordination,
				rep:       comp.Rep,
				deps:      comp.Deps,
				outSchema: schema,
				inLabels:  append([]core.Label(nil), sig...),
				outReps:   outReps,
				steps:     steps,
				rec:       rec,
				out:       out,
			}
			copy(st.versions[1:], st.versions[:memoVersions-1])
			st.versions[0] = m
		}

		if inPlace && st.stamped == m {
			continue // streams already stamped with m.out, record unchanged
		}
		st.changed = true
		st.stamped = m
		for _, s := range st.out {
			a.StreamLabels[s.Name] = m.out
		}
	}

	// The pass completed: report every interface whose derivation changed
	// since the last completed pass (including changes made by cancelled
	// passes), in propagation order, and rebuild the derivation records of
	// their components (of all components on a full pass).
	var touched map[string]bool
	if inPlace {
		touched = map[string]bool{}
	} else {
		stats.Recomputed = make([]NodeRef, 0, len(inc.order))
	}
	for i, node := range inc.order {
		if st := inc.nodes[i]; st.changed {
			st.changed = false
			stats.Recomputed = append(stats.Recomputed, NodeRef{Comp: node.comp, Iface: node.iface})
			if inPlace {
				touched[node.comp] = true
			}
		}
	}
	if !inPlace || len(touched) > 0 {
		for i, node := range inc.order {
			m := inc.nodes[i].stamped
			if m == nil || (inPlace && !touched[node.comp]) {
				continue // m == nil is unreachable: every visited node has an entry
			}
			ca := a.Components[node.comp]
			if ca == nil || ca.builtBy != inc.runSeq {
				ca = &ComponentAnalysis{
					Name:            node.comp,
					Reconciliations: map[string]core.Reconciliation{},
					OutputLabels:    map[string]core.Label{},
					builtBy:         inc.runSeq,
				}
				a.Components[node.comp] = ca
			}
			ca.Steps = append(ca.Steps, m.steps...)
			ca.Reconciliations[node.iface] = m.rec
			ca.OutputLabels[node.iface] = m.rec.Output
		}
	}

	a.Verdict = a.verdict(cg)
	inc.analyzed = inc.version
	inc.last = a
	return a, stats, nil
}
