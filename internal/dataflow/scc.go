package dataflow

import (
	"sort"
	"strings"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// Cycle handling (Section V-A). Blazes "reduces each cycle in the graph to a
// single node with a collapsed label by selecting the label of highest
// severity among the cycle members". Footnote 3 of the paper makes the
// granularity explicit: cycles are detected over *paths*, not components —
// the Cache participates in a cycle through its gossip self-edge, but Cache
// and Report form no cycle because Cache provides no internal path from its
// response input to its request output.
//
// We therefore build an interface-level graph: one node per (component,
// interface, direction); a component path contributes an IN→OUT edge and a
// stream contributes an OUT→IN edge. Strongly connected components of this
// graph are the paper's cycles.

// ifaceNode identifies one side of one component interface.
type ifaceNode struct {
	comp  string
	iface string
	out   bool
}

func (n ifaceNode) String() string {
	dir := "in"
	if n.out {
		dir = "out"
	}
	return n.comp + "." + n.iface + "/" + dir
}

// ifaceGraph is the interface-level view of a dataflow graph.
type ifaceGraph struct {
	nodes []ifaceNode
	adj   map[ifaceNode][]ifaceNode
}

func buildIfaceGraph(g *Graph) *ifaceGraph {
	ig := &ifaceGraph{adj: map[ifaceNode][]ifaceNode{}}
	seen := map[ifaceNode]bool{}
	addNode := func(n ifaceNode) {
		if !seen[n] {
			seen[n] = true
			ig.nodes = append(ig.nodes, n)
		}
	}
	addEdge := func(a, b ifaceNode) {
		addNode(a)
		addNode(b)
		ig.adj[a] = append(ig.adj[a], b)
	}
	for _, c := range g.Components() {
		for _, p := range c.Paths {
			addEdge(ifaceNode{c.Name, p.From, false}, ifaceNode{c.Name, p.To, true})
		}
	}
	for _, s := range g.Streams() {
		if s.IsSource() || s.IsSink() {
			continue
		}
		addEdge(ifaceNode{s.FromComp, s.FromIface, true}, ifaceNode{s.ToComp, s.ToIface, false})
	}
	sort.Slice(ig.nodes, func(i, j int) bool { return less(ig.nodes[i], ig.nodes[j]) })
	//lint:allow maporder sorts each adjacency list in place; the lists are disjoint per key
	for _, vs := range ig.adj {
		sort.Slice(vs, func(i, j int) bool { return less(vs[i], vs[j]) })
	}
	return ig
}

func less(a, b ifaceNode) bool {
	if a.comp != b.comp {
		return a.comp < b.comp
	}
	if a.iface != b.iface {
		return a.iface < b.iface
	}
	return !a.out && b.out
}

// ifaceSCC is the condensation of an interface graph.
type ifaceSCC struct {
	id      map[ifaceNode]int
	members [][]ifaceNode
	cyclic  []bool
}

// condenseIfaces runs Tarjan's algorithm (iteratively deterministic via the
// sorted node order) over the interface graph.
func condenseIfaces(ig *ifaceGraph) *ifaceSCC {
	res := &ifaceSCC{id: map[ifaceNode]int{}}
	index := map[ifaceNode]int{}
	low := map[ifaceNode]int{}
	onStack := map[ifaceNode]bool{}
	var stack []ifaceNode
	next := 0

	var strongconnect func(v ifaceNode)
	strongconnect = func(v ifaceNode) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range ig.adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []ifaceNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return less(comp[i], comp[j]) })
			id := len(res.members)
			for _, m := range comp {
				res.id[m] = id
			}
			res.members = append(res.members, comp)
			res.cyclic = append(res.cyclic, len(comp) > 1)
		}
	}
	for _, v := range ig.nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return res
}

// collapseSCCs rewrites g so that every interface-level cycle is collapsed:
// intra-cycle streams are dropped and every path on a cycle is upgraded to
// the highest-severity annotation among the cycle's paths. Cycles spanning
// several components merge those components into one supernode whose
// external paths connect reachable (external input, external output) pairs.
// Acyclic graphs are returned unchanged (same object). The second result
// marks the original components lying on an interface-level cycle (nil when
// there are none).
func collapseSCCs(g *Graph) (*Graph, map[string]bool) {
	ig := buildIfaceGraph(g)
	sccs := condenseIfaces(ig)

	anyCyclic := false
	for _, c := range sccs.cyclic {
		if c {
			anyCyclic = true
			break
		}
	}
	if !anyCyclic {
		return g, nil
	}

	// Union components that share a cyclic SCC.
	groupOf := map[string]string{} // component → group representative
	find := func(c string) string {
		for groupOf[c] != "" && groupOf[c] != c {
			c = groupOf[c]
		}
		return c
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra == "" {
			ra = a
		}
		if rb == "" {
			rb = b
		}
		if ra != rb {
			groupOf[rb] = ra
		}
		groupOf[ra] = ra
	}
	cyclicComp := map[string]bool{}
	for id, members := range sccs.members {
		if !sccs.cyclic[id] {
			continue
		}
		for _, m := range members {
			cyclicComp[m.comp] = true
			union(members[0].comp, m.comp)
		}
	}

	// Gather the paths and streams lying on cycles, plus the per-group
	// collapsed annotation.
	cycleStream := map[string]bool{}
	for _, s := range g.Streams() {
		if s.IsSource() || s.IsSink() {
			continue
		}
		a := ifaceNode{s.FromComp, s.FromIface, true}
		b := ifaceNode{s.ToComp, s.ToIface, false}
		if sccs.id[a] == sccs.id[b] && sccs.cyclic[sccs.id[a]] {
			cycleStream[s.Name] = true
		}
	}
	onCycle := func(comp string, p Path) bool {
		a := ifaceNode{comp, p.From, false}
		b := ifaceNode{comp, p.To, true}
		return sccs.id[a] == sccs.id[b] && sccs.cyclic[sccs.id[a]]
	}
	groupAnn := map[string]core.Annotation{}
	groupAnnSet := map[string]bool{}
	for _, c := range g.Components() {
		for _, p := range c.Paths {
			if !onCycle(c.Name, p) {
				continue
			}
			rep := find(c.Name)
			if !groupAnnSet[rep] {
				groupAnn[rep] = p.Ann
				groupAnnSet[rep] = true
			} else {
				groupAnn[rep] = maxAnnotation(groupAnn[rep], p.Ann)
			}
		}
	}

	// Collect groups with ≥2 components (true supernodes).
	groupMembers := map[string][]string{}
	for _, c := range g.Components() {
		if cyclicComp[c.Name] {
			rep := find(c.Name)
			groupMembers[rep] = append(groupMembers[rep], c.Name)
		}
	}
	//lint:allow maporder sorts each member list in place; the lists are disjoint per group
	for rep := range groupMembers {
		sort.Strings(groupMembers[rep])
	}
	multi := map[string]bool{} // component → part of a multi-component group
	superOf := map[string]string{}
	for rep, members := range groupMembers {
		if len(members) > 1 {
			name := "scc+" + strings.Join(members, "+")
			for _, m := range members {
				multi[m] = true
				superOf[m] = name
			}
			_ = rep
		}
	}

	ioByGroup := groupBoundaries(g, superOf)

	ng := NewGraph(g.Name)

	// Copy components that are not merged into a supernode; upgrade their
	// cyclic paths (single-component self-cycles) to the group annotation.
	for _, c := range g.Components() {
		if multi[c.Name] {
			continue
		}
		nc := ng.Component(c.Name)
		nc.Rep = c.Rep
		nc.Deps = c.Deps
		nc.OutSchema = c.OutSchema
		nc.Coordination = c.Coordination
		for _, p := range c.Paths {
			ann := p.Ann
			if onCycle(c.Name, p) {
				ann = groupAnn[find(c.Name)]
			}
			nc.AddPath(p.From, p.To, ann)
		}
	}

	// Build supernodes for multi-component groups.
	//lint:allow maporder insertion order is invisible: Components() returns name order
	for rep, members := range groupMembers {
		if len(members) < 2 {
			continue
		}
		name := superOf[members[0]]
		super := ng.Component(name)
		ann := groupAnnFor(g, rep, members, groupAnn)
		deps := fd.NewSet()
		for _, m := range members {
			mc := g.Lookup(m)
			super.Rep = super.Rep || mc.Rep
			if mc.Coordination > super.Coordination {
				super.Coordination = mc.Coordination
			}
			if mc.Deps != nil {
				for _, f := range mc.Deps.FDs() {
					deps.Add(f)
				}
			}
		}
		if deps.Len() > 0 {
			super.Deps = deps
		}
		io := ioByGroup[name]
		reach := groupReachability(g, members, io.internal)
		for _, in := range io.ins {
			for _, out := range io.outs {
				if reach[[2]ifaceNode{in, out}] {
					super.AddPath(in.comp+"."+in.iface, out.comp+"."+out.iface, ann)
				}
			}
		}
		if len(super.Paths) == 0 {
			// Degenerate sink cycle: expose state so validation passes.
			for _, in := range io.ins {
				super.AddPath(in.comp+"."+in.iface, "state", ann)
			}
		}
	}

	// Rewire streams, dropping those on cycles and those internal to a
	// multi-component group.
	for _, s := range g.Streams() {
		if cycleStream[s.Name] {
			continue
		}
		fromComp, fromIface := s.FromComp, s.FromIface
		toComp, toIface := s.ToComp, s.ToIface
		if !s.IsSource() && !s.IsSink() && multi[fromComp] && multi[toComp] && superOf[fromComp] == superOf[toComp] {
			continue
		}
		if fromComp != "" && multi[fromComp] {
			fromIface = fromComp + "." + fromIface
			fromComp = superOf[fromComp]
		}
		if toComp != "" && multi[toComp] {
			toIface = toComp + "." + toIface
			toComp = superOf[toComp]
		}
		ns := ng.Connect(s.Name, fromComp, fromIface, toComp, toIface)
		ns.Seal = s.Seal
		ns.Rep = s.Rep
	}
	return ng, cyclicComp
}

// groupAnnFor returns the collapsed annotation for a group, falling back to
// the max over all member paths when no path was detected on the cycle
// (defensive; should not happen).
func groupAnnFor(g *Graph, rep string, members []string, groupAnn map[string]core.Annotation) core.Annotation {
	if ann, ok := groupAnn[rep]; ok {
		return ann
	}
	var best core.Annotation
	first := true
	for _, m := range members {
		for _, p := range g.Lookup(m).Paths {
			if first || p.Ann.Severity() > best.Severity() {
				best, first = p.Ann, false
			}
		}
	}
	return best
}

// maxAnnotation returns the higher-severity annotation; on severity ties
// between order-sensitive annotations with different gates the result
// degrades to unknown partitioning.
func maxAnnotation(a, b core.Annotation) core.Annotation {
	if b.Severity() > a.Severity() {
		return b
	}
	if b.Severity() == a.Severity() && a.OrderSensitive() {
		if !a.Gate.Equal(b.Gate) || a.GateStar != b.GateStar {
			a.Gate = fd.AttrSet{}
			a.GateStar = true
		}
	}
	return a
}

// groupIO is one supernode group's stream classification: external input
// and output interfaces plus the OUT→IN stream edges internal to the group.
type groupIO struct {
	ins, outs []ifaceNode
	internal  [][2]ifaceNode
}

// groupBoundaries classifies every stream exactly once against all
// multi-component groups (superOf maps member component → supernode name),
// returning each group's external inputs — IN nodes fed by sources, fed
// from outside the group, or fed by nothing at all — external outputs, and
// internal edges. A single pass over the stream list replaces the previous
// per-group rescans, which were quadratic in the number of supernodes.
func groupBoundaries(g *Graph, superOf map[string]string) map[string]*groupIO {
	res := map[string]*groupIO{}
	at := func(comp string) *groupIO {
		name := superOf[comp]
		if name == "" {
			return nil
		}
		io := res[name]
		if io == nil {
			io = &groupIO{}
			res[name] = io
		}
		return io
	}
	// Interface nodes belong to exactly one group, so global dedupe maps
	// are safe across groups.
	insSeen := map[ifaceNode]bool{}
	outsSeen := map[ifaceNode]bool{}
	fedFromInside := map[ifaceNode]bool{}
	for _, s := range g.Streams() {
		sameGroup := !s.IsSource() && !s.IsSink() &&
			superOf[s.FromComp] != "" && superOf[s.FromComp] == superOf[s.ToComp]
		if !s.IsSink() {
			if io := at(s.ToComp); io != nil {
				n := ifaceNode{s.ToComp, s.ToIface, false}
				if sameGroup {
					fedFromInside[n] = true
				} else if !insSeen[n] {
					insSeen[n] = true
					io.ins = append(io.ins, n)
				}
			}
		}
		if !s.IsSource() {
			if io := at(s.FromComp); io != nil {
				n := ifaceNode{s.FromComp, s.FromIface, true}
				if sameGroup {
					io.internal = append(io.internal, [2]ifaceNode{n, {s.ToComp, s.ToIface, false}})
				} else if !outsSeen[n] {
					outsSeen[n] = true
					io.outs = append(io.outs, n)
				}
			}
		}
	}
	// Member inputs fed by nothing (every incoming stream marks the node
	// in insSeen or fedFromInside) are external too.
	//lint:allow maporder appends are re-sorted below before use
	for comp := range superOf {
		for _, iface := range g.Lookup(comp).Inputs() {
			n := ifaceNode{comp, iface, false}
			if !insSeen[n] && !fedFromInside[n] {
				io := at(comp)
				insSeen[n] = true
				io.ins = append(io.ins, n)
			}
		}
	}
	//lint:allow maporder sorts each group's lists in place; the lists are disjoint per group
	for _, io := range res {
		sort.Slice(io.ins, func(i, j int) bool { return less(io.ins[i], io.ins[j]) })
		sort.Slice(io.outs, func(i, j int) bool { return less(io.outs[i], io.outs[j]) })
	}
	return res
}

// groupReachability computes (in, out) reachability through the group's
// internal paths and the pre-classified internal stream edges.
func groupReachability(g *Graph, members []string, internal [][2]ifaceNode) map[[2]ifaceNode]bool {
	adj := map[ifaceNode][]ifaceNode{}
	for _, comp := range members {
		for _, p := range g.Lookup(comp).Paths {
			adj[ifaceNode{comp, p.From, false}] = append(adj[ifaceNode{comp, p.From, false}], ifaceNode{comp, p.To, true})
		}
	}
	for _, e := range internal {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	res := map[[2]ifaceNode]bool{}
	for _, comp := range members {
		for _, iface := range g.Lookup(comp).Inputs() {
			start := ifaceNode{comp, iface, false}
			seen := map[ifaceNode]bool{start: true}
			queue := []ifaceNode{start}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range adj[v] {
					if !seen[w] {
						seen[w] = true
						queue = append(queue, w)
					}
				}
			}
			for n := range seen {
				if n.out {
					res[[2]ifaceNode{start, n}] = true
				}
			}
		}
	}
	return res
}
