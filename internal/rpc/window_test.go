package rpc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sliceMemo is the served-request memo as the servers kept it before Window:
// a map and a FIFO slice of first insertions, trimmed from the front when
// its length passes the bound; a delete scans the slice for the key's slot.
// It is the reference Window must reproduce.
type sliceMemo struct {
	bound int
	vals  map[int]int
	done  map[int]bool
	log   []int
}

func (m *sliceMemo) insert(k, v int, done bool) {
	m.vals[k], m.done[k] = v, done
	m.log = append(m.log, k)
	if len(m.log) > m.bound {
		old := m.log[0]
		m.log = m.log[1:]
		delete(m.vals, old)
		delete(m.done, old)
	}
}

func (m *sliceMemo) begin(k int) bool {
	if _, ok := m.vals[k]; ok {
		return false
	}
	m.insert(k, 0, false)
	return true
}

func (m *sliceMemo) put(k, v int) {
	if _, ok := m.vals[k]; ok {
		m.vals[k], m.done[k] = v, true
		return
	}
	m.insert(k, v, true)
}

func (m *sliceMemo) get(k int) (int, bool, bool) {
	v, ok := m.vals[k]
	return v, m.done[k], ok
}

func (m *sliceMemo) del(k int) {
	delete(m.vals, k)
	delete(m.done, k)
	for i, q := range m.log {
		if q == k {
			m.log = append(m.log[:i], m.log[i+1:]...)
			break
		}
	}
}

// TestWindowMatchesSliceMemo drives Window and the slice memo through the same
// seeded random sequences — begin, put, get, delete, a re-begin after a
// delete, and enough fresh keys to overflow the bound — and requires the same
// answer to every operation and the same live keys, oldest first, after each.
func TestWindowMatchesSliceMemo(t *testing.T) {
	for _, bound := range []int{1, 2, 7, 64} {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := NewWindow[int, int](bound)
			m := &sliceMemo{bound: bound, vals: map[int]int{}, done: map[int]bool{}}
			next := 0         // the next fresh key
			var deleted []int // keys deleted and not yet re-begun
			key := func() int {
				// Mostly keys seen lately, some older ones, some fresh.
				switch r := rng.Intn(10); {
				case r < 6 && next > 0:
					return next - 1 - rng.Intn(min(next, 2*bound))
				case r < 8 && next > 0:
					return rng.Intn(next)
				}
				next++
				return next - 1
			}
			for step := 0; step < 2000; step++ {
				what := ""
				switch op := rng.Intn(6); op {
				case 0, 1:
					k := key()
					what = fmt.Sprintf("begin %d", k)
					if got, want := w.Begin(k), m.begin(k); got != want {
						t.Fatalf("bound %d seed %d step %d: %s = %v, want %v", bound, seed, step, what, got, want)
					}
				case 2:
					k, v := key(), rng.Intn(1000)+1
					what = fmt.Sprintf("put %d=%d", k, v)
					w.Put(k, v)
					m.put(k, v)
				case 3:
					k := key()
					what = fmt.Sprintf("delete %d", k)
					w.Delete(k)
					m.del(k)
					deleted = append(deleted, k)
				case 4:
					if len(deleted) == 0 {
						continue
					}
					i := rng.Intn(len(deleted))
					k := deleted[i]
					deleted = slices.Delete(deleted, i, i+1)
					what = fmt.Sprintf("re-begin %d after delete", k)
					if got, want := w.Begin(k), m.begin(k); got != want {
						t.Fatalf("bound %d seed %d step %d: %s = %v, want %v", bound, seed, step, what, got, want)
					}
				case 5:
					k := key()
					what = fmt.Sprintf("get %d", k)
					v, done, ok := w.Get(k)
					mv, mdone, mok := m.get(k)
					if v != mv || done != mdone || ok != mok {
						t.Fatalf("bound %d seed %d step %d: %s = (%d, %v, %v), want (%d, %v, %v)",
							bound, seed, step, what, v, done, ok, mv, mdone, mok)
					}
				}
				if got := w.live(); !slices.Equal(got, m.log) || w.Len() != len(m.vals) {
					t.Fatalf("bound %d seed %d step %d after %s: live %v (len %d), want %v (len %d)",
						bound, seed, step, what, got, w.Len(), m.log, len(m.vals))
				}
			}
		}
	}
}

// live lists the window's keys, oldest first.
func (w *Window[K, V]) live() []K {
	var out []K
	for i := w.slots[0].next; i != 0; i = w.slots[i].next {
		out = append(out, w.slots[i].key)
	}
	return out
}

// TestWindowDeleteFreesSlot pins what the data node relies on: a key deleted
// while in flight gives its slot back, so a re-execution's response stays for
// a full window instead of leaving one slot early.
func TestWindowDeleteFreesSlot(t *testing.T) {
	const bound = 4
	w := NewWindow[int, string](bound)
	w.Begin(0)
	w.Delete(0)
	w.Begin(1)
	w.Put(1, "one")
	for k := 2; k < 2+bound-1; k++ {
		w.Begin(k)
	}
	if v, done, ok := w.Get(1); !ok || !done || v != "one" {
		t.Fatalf("key 1 after %d younger keys: (%q, %v, %v), want its value", bound-1, v, done, ok)
	}
	if len(w.slots) != bound+1 {
		t.Errorf("%d slots allocated for a bound of %d", len(w.slots)-1, bound)
	}
}
