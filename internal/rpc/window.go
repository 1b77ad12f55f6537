// Package rpc is what every node kind needs to turn at-least-once UDP
// exchanges into exactly-once ones (§5.4.1) and to wait for a peer: Routes,
// the dispatch table that says which client requests are deduplicated;
// Served, the memo of the client requests a node took up, which the clients'
// acknowledgements release and whose Admit is the replay-or-begin step those
// requests pass; Window, the bounded memo of the server-to-server requests,
// which carry no acknowledgement; and Calls, the one retried call with its
// registry of calls in flight. The metadata server uses all four, the data
// node all but Window; the baseline file systems use only Served, whose
// Admit every baseline request passes in its server's one dispatch.
package rpc

// Window remembers the last bound requests a node took up, keyed by request,
// so a duplicate is answered from the memo instead of re-executing. A key is
// in flight from Begin until Put records its value. When an insertion makes
// the live count pass the bound, the oldest first-inserted key leaves. Every
// operation is O(1).
type Window[K comparable, V any] struct {
	bound int
	at    map[K]int32
	// slots holds the live keys as a list in insertion order, linked through
	// prev/next; slot 0 is the list's sentinel (next: the oldest, prev: the
	// newest). free chains the released slots through next (0: none).
	slots []slot[K, V]
	free  int32
}

type slot[K comparable, V any] struct {
	key        K
	val        V
	done       bool
	prev, next int32
}

// NewWindow returns an empty window holding at most bound keys.
func NewWindow[K comparable, V any](bound int) *Window[K, V] {
	return &Window[K, V]{bound: bound, at: make(map[K]int32), slots: make([]slot[K, V], 1)}
}

// Begin marks k in flight and reports whether it was absent; a key already
// in the window, in flight or recorded, is left as it is.
func (w *Window[K, V]) Begin(k K) bool {
	if _, ok := w.at[k]; ok {
		return false
	}
	w.insert(k, *new(V), false)
	return true
}

// Put records v as k's value, inserting k as the newest key if it is absent.
func (w *Window[K, V]) Put(k K, v V) {
	if i, ok := w.at[k]; ok {
		w.slots[i].val, w.slots[i].done = v, true
		return
	}
	w.insert(k, v, true)
}

// Get looks k up: ok reports that it is in the window, done that a value was
// recorded (v; while k is in flight, v is the zero value).
func (w *Window[K, V]) Get(k K) (v V, done, ok bool) {
	i, ok := w.at[k]
	if !ok {
		return v, false, false
	}
	return w.slots[i].val, w.slots[i].done, true
}

// Len reports the number of keys in the window.
func (w *Window[K, V]) Len() int { return len(w.at) }

func (w *Window[K, V]) insert(k K, v V, done bool) {
	i := w.free
	if i != 0 {
		w.free = w.slots[i].next
	} else {
		if len(w.slots) == cap(w.slots) {
			// Double, up to what the window can ever use: the sentinel,
			// bound live keys and the one inserted before the oldest leaves.
			grown := make([]slot[K, V], len(w.slots), max(len(w.slots)+1, min(2*cap(w.slots), w.bound+2)))
			copy(grown, w.slots)
			w.slots = grown
		}
		i = int32(len(w.slots))
		w.slots = w.slots[:i+1]
	}
	newest := w.slots[0].prev
	w.slots[i] = slot[K, V]{key: k, val: v, done: done, prev: newest}
	w.slots[newest].next = i
	w.slots[0].prev = i
	w.at[k] = i
	if len(w.at) > w.bound {
		w.release(w.slots[0].next)
	}
}

// release unlinks slot i, forgets its key and puts it on the free chain.
func (w *Window[K, V]) release(i int32) {
	s := &w.slots[i]
	w.slots[s.prev].next = s.next
	w.slots[s.next].prev = s.prev
	delete(w.at, s.key)
	*s = slot[K, V]{next: w.free}
	w.free = i
}
