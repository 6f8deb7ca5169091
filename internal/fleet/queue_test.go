package fleet

import (
	"testing"

	"rfly/internal/runtime"
)

func qm(seq uint64, prio int, region string) *mission {
	return &mission{
		id:  region,
		seq: seq,
		req: Request{
			Region:   region,
			Priority: prio,
			Tags:     []runtime.TagSpec{{ID: 1, X: 1, Y: 1, Z: 1}},
		},
		status: StatusQueued,
		done:   make(chan struct{}),
	}
}

func TestQueueOrdering(t *testing.T) {
	var q prioQueue
	q.push(qm(1, 0, "a"))
	q.push(qm(2, 5, "b"))
	q.push(qm(3, 5, "c"))
	q.push(qm(4, 1, "d"))

	var got []uint64
	for {
		m := q.pop()
		if m == nil {
			break
		}
		got = append(got, m.seq)
	}
	// Priority desc, FIFO within a priority.
	want := []uint64{2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestTakeCompatible(t *testing.T) {
	var q prioQueue
	east1 := qm(1, 0, "corridor-east")
	west := qm(2, 0, "corridor-west")
	east2 := qm(3, 7, "corridor-east")
	east3 := qm(4, 0, "corridor-east")
	canceledEast := qm(5, 9, "corridor-east")
	canceledEast.canceled = true
	for _, m := range []*mission{east1, west, east2, east3, canceledEast} {
		q.push(m)
	}

	got := q.takeCompatible(east1.req.batchKey(), 2)
	if len(got) != 2 {
		t.Fatalf("took %d, want 2", len(got))
	}
	// Best-first: priority 7 first, then the older priority-0 entry;
	// the canceled entry must be skipped despite its priority.
	if got[0] != east2 || got[1] != east1 {
		t.Fatalf("took %v,%v; want east2,east1", got[0].seq, got[1].seq)
	}
	if q.Len() != 3 {
		t.Fatalf("queue has %d left, want 3", q.Len())
	}
	// The survivors still pop in heap order.
	if m := q.pop(); m != canceledEast {
		t.Fatalf("expected canceled head (prio 9), got seq %d", m.seq)
	}
	if m := q.pop(); m != west {
		t.Fatalf("expected west, got seq %d", m.seq)
	}
	if m := q.pop(); m != east3 {
		t.Fatalf("expected east3, got seq %d", m.seq)
	}
	if q.takeCompatible("nope@915000000", 4) != nil {
		t.Fatal("takeCompatible on empty queue returned entries")
	}
}

// TestTakeCompatibleSkipsExclusive: an exclusive or resuming request that
// shares the head's region and channel plan must not ride its batch; it
// stays queued for a single-tenant sortie of its own.
func TestTakeCompatibleSkipsExclusive(t *testing.T) {
	var q prioQueue
	head := qm(1, 0, "dock")
	excl := qm(2, 0, "dock")
	excl.req.Exclusive = true
	resume := qm(3, 0, "dock")
	resume.req.Resume = []byte{1}
	for _, m := range []*mission{head, excl, resume} {
		q.push(m)
	}
	if got := q.pop(); got != head {
		t.Fatalf("popped seq %d, want the inventory head", got.seq)
	}
	batch := append([]*mission{head}, q.takeCompatible(head.req.batchKey(), 4)...)
	if len(batch) != 1 {
		t.Fatalf("batch of %d, want 1: exclusive requests were coalesced", len(batch))
	}
	if q.Len() != 2 {
		t.Fatalf("queue has %d left, want the 2 exclusive requests", q.Len())
	}
}

func TestBatchKeySeparatesChannels(t *testing.T) {
	a := Request{Region: "corridor-east"}
	b := Request{Region: "corridor-east", ChannelHz: DefaultChannelHz}
	c := Request{Region: "corridor-east", ChannelHz: 920e6}
	if a.batchKey() != b.batchKey() {
		t.Fatal("default channel and explicit default should share a key")
	}
	if a.batchKey() == c.batchKey() {
		t.Fatal("different channel plans must not share a key")
	}
}
