package route

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap orders pqItems through container/heap, the reference the
// router's typed heap must match pop for pop.
type refHeap []pqItem

func (q refHeap) Len() int           { return len(q) }
func (q refHeap) Less(i, j int) bool { return q[i].cost < q[j].cost }
func (q refHeap) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refHeap) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// frontier is the push/pop surface a heap script drives.
type frontier struct {
	push func(pqItem)
	pop  func() pqItem
	size func() int
}

// runHeapScript replays one randomized script of interleaved pushes
// and pops — few distinct costs over many tiles, so most comparisons
// are ties — and returns the popped sequence, draining at the end.
func runHeapScript(seed int64, f frontier) []pqItem {
	rng := rand.New(rand.NewSource(seed))
	var out []pqItem
	for op := 0; op < 3000; op++ {
		if f.size() > 0 && rng.Intn(5) < 2 {
			out = append(out, f.pop())
			continue
		}
		f.push(pqItem{cost: float64(rng.Intn(4)), tile: int32(rng.Intn(500))})
	}
	for f.size() > 0 {
		out = append(out, f.pop())
	}
	return out
}

func refFrontier() frontier {
	q := &refHeap{}
	return frontier{
		push: func(it pqItem) { heap.Push(q, it) },
		pop:  func() pqItem { return heap.Pop(q).(pqItem) },
		size: func() int { return q.Len() },
	}
}

func typedFrontier() frontier {
	r := &router{}
	return frontier{push: r.push, pop: r.pop, size: func() int { return len(r.heap) }}
}

// leftBiasedFrontier is the typed heap with pop's child choice flipped
// to <= (the right child wins ties): a plausible slip that keeps the
// heap valid but breaks equal-cost ties differently.
func leftBiasedFrontier() frontier {
	r := &router{}
	pop := func() pqItem {
		q := r.heap
		n := len(q) - 1
		top, last := q[0], q[n]
		q = q[:n]
		if n > 0 {
			i := 0
			for {
				c := 2*i + 1
				if c >= n {
					break
				}
				if c2 := c + 1; c2 < n && q[c2].cost <= q[c].cost {
					c = c2
				}
				if !(q[c].cost < last.cost) {
					break
				}
				q[i] = q[c]
				i = c
			}
			q[i] = last
		}
		r.heap = q
		return top
	}
	return frontier{push: r.push, pop: pop, size: func() int { return len(r.heap) }}
}

func firstDiff(a, b []pqItem) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}

func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want := runHeapScript(seed, refFrontier())
		got := runHeapScript(seed, typedFrontier())
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("seed %d: pop %d diverges from container/heap (%d vs %d pops)", seed, i, len(got), len(want))
		}
	}
	// The scripts must be tie-heavy enough to tell a heap that breaks
	// ties differently from the reference.
	t.Run("detects flipped child choice", func(t *testing.T) {
		want := runHeapScript(1, refFrontier())
		got := runHeapScript(1, leftBiasedFrontier())
		if firstDiff(got, want) < 0 {
			t.Fatal("a <= child choice pops the same sequence; the script has too few ties")
		}
	})
}
