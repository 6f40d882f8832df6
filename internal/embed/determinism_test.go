package embed

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// These tests pin the solver's determinism: every Solve of a problem
// returns a result bit-identical to a lone reference Solve — frontier,
// every per-vertex solution set, and every extracted embedding — also
// when several Solves of the same Problem run at once, as serve
// workers and raced engine variants do. Concurrent solves share the
// read-only Problem and the pooled solver scratch, so stale scratch
// state or a hidden write to shared inputs shows up as a mismatch (or,
// under -race, as a reported race).

// solveConcurrent solves p alone as the reference, then again from
// n goroutines at once for each n in counts, and checks every result
// against the reference.
func solveConcurrent(t *testing.T, name string, p *Problem, counts ...int) {
	t.Helper()
	want, err := p.Solve()
	if err != nil {
		t.Fatalf("%s: reference solve: %v", name, err)
	}
	for _, n := range counts {
		got := make([]*Result, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = p.Solve()
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s: concurrent solve %d/%d: %v", name, i, n, errs[i])
			}
			resultsEqual(t, name, n, p, want, got[i])
		}
	}
}

func resultsEqual(t *testing.T, name string, solves int, p *Problem, want, got *Result) {
	t.Helper()
	if len(want.Frontier) != len(got.Frontier) {
		t.Fatalf("%s[n=%d]: frontier size %d vs reference %d",
			name, solves, len(got.Frontier), len(want.Frontier))
	}
	for i := range want.Frontier {
		if want.Frontier[i].Sig != got.Frontier[i].Sig ||
			want.Frontier[i].Vertex != got.Frontier[i].Vertex {
			t.Fatalf("%s[n=%d]: frontier[%d] = %+v, reference %+v",
				name, solves, i, got.Frontier[i], want.Frontier[i])
		}
	}
	// Every accepted solution set, node by node and vertex by vertex —
	// this covers intermediate DP state, not just the root.
	for id := range p.T.Nodes {
		for v := Vertex(0); v < Vertex(p.G.NumVertices()); v++ {
			ws := want.SolutionsAt(NodeID(id), v)
			gs := got.SolutionsAt(NodeID(id), v)
			if len(ws) != len(gs) {
				t.Fatalf("%s[n=%d]: |A[%d][%d]| = %d, reference %d",
					name, solves, id, v, len(gs), len(ws))
			}
			for k := range ws {
				if ws[k] != gs[k] {
					t.Fatalf("%s[n=%d]: A[%d][%d][%d] = %+v, reference %+v",
						name, solves, id, v, k, gs[k], ws[k])
				}
			}
		}
	}
	// Extraction retraces provenance (joinRef/child indices), so this
	// verifies the join pools, not just the signatures.
	for i := range want.Frontier {
		we := want.Extract(want.Frontier[i])
		ge := got.Extract(got.Frontier[i])
		if we.WireCost != ge.WireCost {
			t.Fatalf("%s[n=%d]: extract[%d] wire %v, reference %v",
				name, solves, i, ge.WireCost, we.WireCost)
		}
		for id := range we.NodeVertex {
			if we.NodeVertex[id] != ge.NodeVertex[id] {
				t.Fatalf("%s[n=%d]: extract[%d] node %d at %d, reference %d",
					name, solves, i, id, ge.NodeVertex[id], we.NodeVertex[id])
			}
			if len(we.Routes[id]) != len(ge.Routes[id]) {
				t.Fatalf("%s[n=%d]: extract[%d] route %d length %d, reference %d",
					name, solves, i, id, len(ge.Routes[id]), len(we.Routes[id]))
			}
			for k := range we.Routes[id] {
				if we.Routes[id][k] != ge.Routes[id][k] {
					t.Fatalf("%s[n=%d]: extract[%d] route %d hop %d = %d, reference %d",
						name, solves, i, id, k, ge.Routes[id][k], we.Routes[id][k])
				}
			}
		}
	}
}

// TestSolveParallelWorkedExample solves the paper's Fig. 7 worked
// example from several goroutines at once.
func TestSolveParallelWorkedExample(t *testing.T) {
	g := lineGraph(5)
	tree := &Tree{
		Nodes: []Node{
			{Vertex: 0, Arr: 0},
			{Children: []NodeID{0}, Intrinsic: 1},
			{Children: []NodeID{1}, Vertex: 4, Intrinsic: 1},
		},
		Root: 2,
	}
	p := &Problem{
		G:    g,
		T:    tree,
		Mode: Mode{LexDepth: 1, Delay: QuadraticDelay},
		PlaceCost: func(node NodeID, v Vertex) float64 {
			if node == 2 {
				return 0
			}
			if v == 0 || v == 4 {
				return math.Inf(1)
			}
			return float64(v)
		},
	}
	solveConcurrent(t, "worked-example", p, 2, 3, 8)
}

// randomProblem builds a seeded random instance: a random tree of
// leaves and gates over a unit grid, random leaf locations and arrival
// skews, and a deterministic pseudo-random placement cost.
func randomProblem(seed int64, w, h, leaves int, mode Mode, freeRoot bool) *Problem {
	rng := rand.New(rand.NewSource(seed))
	g := NewGrid(GridSpec{W: w, H: h, WireCost: 1, WireDelay: 1})
	nv := g.NumVertices()

	var nodes []Node
	var open []NodeID // roots of already-built subtrees
	for i := 0; i < leaves; i++ {
		nodes = append(nodes, Node{
			Vertex:   Vertex(rng.Intn(nv)),
			Arr:      float64(rng.Intn(6)),
			Critical: i == 0 && mode.MC,
		})
		open = append(open, NodeID(i))
	}
	// Combine random subtree groups under new gates until one remains.
	for len(open) > 1 {
		k := 1 + rng.Intn(2) // 1- or 2-input gates
		if k > len(open) {
			k = len(open)
		}
		var kids []NodeID
		for j := 0; j < k; j++ {
			pick := rng.Intn(len(open))
			kids = append(kids, open[pick])
			open[pick] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		nodes = append(nodes, Node{Children: kids, Intrinsic: 1})
		open = append(open, NodeID(len(nodes)-1))
	}
	// The last gate becomes the root; fix it unless testing free roots.
	root := open[0]
	if int(root) < leaves {
		// Degenerate single-leaf draw: add a root gate above it.
		nodes = append(nodes, Node{Children: []NodeID{root}, Intrinsic: 1})
		root = NodeID(len(nodes) - 1)
	}
	if freeRoot {
		nodes[root].Vertex = -1
	} else {
		nodes[root].Vertex = Vertex(rng.Intn(nv))
	}

	// Pseudo-random but pure placement cost table.
	costs := make([]float64, len(nodes)*nv)
	for i := range costs {
		costs[i] = float64(rng.Intn(8)) * 0.5
	}
	p := &Problem{
		G:    g,
		T:    &Tree{Nodes: nodes, Root: root},
		Mode: mode,
		PlaceCost: func(node NodeID, v Vertex) float64 {
			return costs[int(node)*nv+int(v)]
		},
	}
	if mode.OverlapControl {
		p.Capacity = func(v Vertex) int { return 1 }
	}
	return p
}

// TestSolveParallelRandomized sweeps seeded random instances across all
// signature modes, comparing concurrent solves against the reference.
func TestSolveParallelRandomized(t *testing.T) {
	modes := []struct {
		name string
		mode Mode
	}{
		{"2d", Mode{LexDepth: 1}},
		{"quad", Mode{LexDepth: 1, Delay: QuadraticDelay}},
		{"elmore", Mode{LexDepth: 1, Delay: ElmoreDelay}},
		{"lex3", Mode{LexDepth: 3}},
		{"lexmc", Mode{LexDepth: 1, MC: true}},
		{"overlap", Mode{LexDepth: 1, OverlapControl: true}},
	}
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, m := range modes {
		for _, seed := range seeds {
			p := randomProblem(seed, 6, 6, 3+int(seed)%3, m.mode, false)
			solveConcurrent(t, m.name, p, 2, 4)
		}
	}
}

// TestSolveParallelFreeRoot covers the FF-relocation join, where the
// root joins at every vertex and the frontier spans all of them.
func TestSolveParallelFreeRoot(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := randomProblem(seed, 6, 6, 4, Mode{LexDepth: 1}, true)
		solveConcurrent(t, "free-root", p, 2, 4, 7)
	}
}

// TestSolveParallelCapped checks determinism under MaxPerVertex/
// DelayQuantum trimming, which prunes by list position and so is the
// most order-sensitive configuration.
func TestSolveParallelCapped(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		p := randomProblem(seed, 7, 7, 5, Mode{LexDepth: 2}, false)
		p.MaxPerVertex = 4
		p.DelayQuantum = 0.5
		solveConcurrent(t, "capped", p, 2, 4)
	}
}
