package ipc

import "testing"

// TestDropCounting fills each queue kind past capacity and checks the
// rejected enqueues are counted and reachable through DropsOf.
func TestDropCounting(t *testing.T) {
	for _, kind := range []Kind{LockFree, Locked} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			q := New[int](kind, 4)
			cap := q.Cap()
			for i := 0; i < cap; i++ {
				if !q.Enqueue(i) {
					t.Fatalf("enqueue %d rejected below capacity", i)
				}
			}
			const rejected = 3
			for i := 0; i < rejected; i++ {
				if q.Enqueue(99) {
					t.Fatal("enqueue accepted above capacity")
				}
			}
			if d := DropsOf(q); d != rejected {
				t.Errorf("DropsOf = %d, want %d", d, rejected)
			}
			// Draining and refilling must not disturb the count.
			if _, ok := q.Dequeue(); !ok {
				t.Fatal("dequeue failed on full queue")
			}
			if !q.Enqueue(1) {
				t.Fatal("enqueue rejected with one free slot")
			}
			if d := DropsOf(q); d != rejected {
				t.Errorf("DropsOf after refill = %d, want %d", d, rejected)
			}
		})
	}
}

// TestDropsOfUncounted returns zero for queues without a DropCounter.
func TestDropsOfUncounted(t *testing.T) {
	var q plainQueue
	if d := DropsOf[int](q); d != 0 {
		t.Errorf("DropsOf on uncounted queue = %d, want 0", d)
	}
}

// plainQueue is a minimal Queue[int] without drop counting.
type plainQueue struct{}

func (plainQueue) Enqueue(int) bool     { return false }
func (plainQueue) Dequeue() (int, bool) { return 0, false }
func (plainQueue) Len() int             { return 0 }
func (plainQueue) Cap() int             { return 0 }
