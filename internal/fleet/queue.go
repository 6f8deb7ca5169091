package fleet

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// Admission control: a bounded priority queue. The bound is the
// backpressure mechanism — when the queue is full, Submit fails
// immediately with ErrBacklog carrying a Retry-After estimate, and the
// caller (the HTTP layer turns this into 429 + Retry-After) is expected
// to come back later. Nothing in the service buffers without bound: a
// request is either in this queue, riding a sortie, or rejected.

// ErrBacklog is returned by Submit when the admission queue is full.
type ErrBacklog struct {
	// Depth is the queue depth at rejection time.
	Depth int
	// RetryAfter estimates when capacity will free up, derived from the
	// observed batch service time and the shard count.
	RetryAfter time.Duration
}

func (e ErrBacklog) Error() string {
	return fmt.Sprintf("fleet: admission queue full (%d deep); retry after %s", e.Depth, e.RetryAfter)
}

// ErrDraining is returned by Submit once a drain has begun.
type ErrDraining struct{}

func (ErrDraining) Error() string { return "fleet: scheduler is draining; not accepting work" }

// prioQueue orders missions by (priority desc, arrival seq asc). It is
// not goroutine-safe; the scheduler's mutex guards it.
type prioQueue struct{ items []*mission }

func (q *prioQueue) Len() int { return len(q.items) }

func (q *prioQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.req.Priority != b.req.Priority {
		return a.req.Priority > b.req.Priority
	}
	return a.seq < b.seq
}

func (q *prioQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *prioQueue) Push(x any) { q.items = append(q.items, x.(*mission)) }

func (q *prioQueue) Pop() any {
	old := q.items
	n := len(old)
	m := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return m
}

func (q *prioQueue) push(m *mission) { heap.Push(q, m) }

// pop removes and returns the highest-priority mission, or nil.
func (q *prioQueue) pop() *mission {
	if len(q.items) == 0 {
		return nil
	}
	return heap.Pop(q).(*mission)
}

// takeCompatible removes and returns up to max missions whose batch key
// matches key, in (priority, seq) order. Canceled entries are skipped
// (and left for the dispatcher to reap via pop), and so are exclusive
// ones: they fly single-tenant sorties when they reach the head.
func (q *prioQueue) takeCompatible(key string, max int) []*mission {
	if max <= 0 {
		return nil
	}
	var cand []*mission
	for _, m := range q.items {
		if !m.canceled && !m.req.exclusive() && m.req.batchKey() == key {
			cand = append(cand, m)
		}
	}
	sort.Slice(cand, func(i, j int) bool { return less(cand[i], cand[j]) })
	if len(cand) > max {
		cand = cand[:max]
	}
	if len(cand) == 0 {
		return nil
	}
	taken := make(map[*mission]bool, len(cand))
	for _, m := range cand {
		taken[m] = true
	}
	kept := q.items[:0]
	for _, m := range q.items {
		if !taken[m] {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = kept
	heap.Init(q)
	return cand
}

func less(a, b *mission) bool {
	if a.req.Priority != b.req.Priority {
		return a.req.Priority > b.req.Priority
	}
	return a.seq < b.seq
}
