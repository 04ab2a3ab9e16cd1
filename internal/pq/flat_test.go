package pq

import (
	"fmt"
	"math"
	"testing"

	"graphdiam/internal/rng"
)

// bruteHeap is the reference priority queue: a map from id to priority,
// popped by a linear scan for the minimum. Push has FlatHeap's contract
// (insert, or lower an existing priority; a larger one is ignored).
type bruteHeap map[int32]float64

func (b bruteHeap) push(id int32, p float64) {
	if cur, ok := b[id]; !ok || p < cur {
		b[id] = p
	}
}

func (b bruteHeap) min() float64 {
	m := math.Inf(1)
	for _, p := range b {
		m = math.Min(m, p)
	}
	return m
}

// pop removes id after checking that FlatHeap was right to pop it: id
// must be present at priority p, and p must be the minimum.
func (b bruteHeap) pop(t *testing.T, step string, id int32, p float64) {
	t.Helper()
	if want := b.min(); p != want {
		t.Fatalf("%s: flat popped p=%v, brute-force minimum is %v", step, p, want)
	}
	if cur, ok := b[id]; !ok || cur != p {
		t.Fatalf("%s: flat popped (%d, %v), brute force holds %d at (%v, present=%v)", step, id, p, id, cur, ok)
	}
	delete(b, id)
}

// TestFlatHeapMatchesBruteForce drives FlatHeap and a brute-force
// reference with the same randomized push/decrease/pop mix and requires
// every pop to return a minimum-priority item the reference holds, with
// identical lengths after every step.
func TestFlatHeapMatchesBruteForce(t *testing.T) {
	const n = 200
	r := rng.New(31)
	fh := NewFlatHeap(n)
	ref := bruteHeap{}
	for round := 0; round < 5000; round++ {
		switch {
		case fh.Len() == 0 || r.Float64() < 0.55:
			id := int32(r.Intn(n))
			p := r.Float64()
			fh.Push(id, p) // Push doubles as decrease-key
			ref.push(id, p)
		default:
			id, p := fh.Pop()
			ref.pop(t, fmt.Sprintf("round %d", round), id, p)
		}
		if fh.Len() != len(ref) {
			t.Fatalf("round %d: lengths diverged %d vs %d", round, fh.Len(), len(ref))
		}
	}
	for fh.Len() > 0 {
		id, p := fh.Pop()
		ref.pop(t, "drain", id, p)
	}
	if len(ref) != 0 {
		t.Fatalf("drain: flat heap empty, brute force still holds %d items", len(ref))
	}
}

// TestFlatHeapDecreaseKeyAndReset: pushing a smaller priority for a present
// id lowers it (larger is ignored), and Reset empties retaining validity.
func TestFlatHeapDecreaseKeyAndReset(t *testing.T) {
	h := NewFlatHeap(10)
	h.Push(3, 5.0)
	h.Push(4, 4.0)
	h.Push(3, 9.0) // not lower: ignored
	h.Push(3, 1.0) // decrease-key
	if !h.Contains(3) || h.Contains(7) {
		t.Fatal("Contains wrong")
	}
	id, p := h.Pop()
	if id != 3 || p != 1.0 {
		t.Fatalf("Pop = (%d, %v), want (3, 1)", id, p)
	}
	h.Reset()
	if h.Len() != 0 || h.Contains(4) {
		t.Fatal("Reset did not empty the heap")
	}
	h.Push(4, 2.0)
	if id, p := h.Pop(); id != 4 || p != 2.0 {
		t.Fatalf("post-Reset Pop = (%d, %v)", id, p)
	}
}
