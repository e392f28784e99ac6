package ipc

import (
	"sync"
	"testing"
)

// closableQueues returns one instance of every shipped queue variant that
// implements Closer, keyed by name.
func closableQueues(capacity int) map[string]Queue[*int] {
	return map[string]Queue[*int]{
		"spsc":  NewSPSC[*int](capacity),
		"mpsc":  NewMPSC[*int](capacity),
		"mutex": NewMutexQueue[*int](capacity),
	}
}

// TestCloseFailsFastAndCounts checks the producer half of the drain contract:
// after Close, Enqueue rejects unconditionally and every rejection counts
// into Drops, so the caller knows it kept ownership of the element.
func TestCloseFailsFastAndCounts(t *testing.T) {
	for name, q := range closableQueues(8) {
		t.Run(name, func(t *testing.T) {
			v := 1
			if !q.Enqueue(&v) {
				t.Fatal("enqueue before close failed")
			}
			if IsClosed(q) {
				t.Fatal("queue reports closed before Close")
			}
			if !Close(q) {
				t.Fatalf("%s does not implement Closer", name)
			}
			if !IsClosed(q) {
				t.Fatal("queue does not report closed after Close")
			}
			// Idempotent.
			Close(q)

			before := DropsOf(q)
			for i := 0; i < 3; i++ {
				if q.Enqueue(&v) {
					t.Fatalf("enqueue %d after close succeeded", i)
				}
			}
			if got := DropsOf(q) - before; got != 3 {
				t.Fatalf("post-close rejections counted %d drops, want 3", got)
			}
		})
	}
}

// TestCloseDrainsResidue checks the consumer half of the drain contract:
// elements enqueued before Close are all still dequeued, in order, and only
// then does the queue report empty.
func TestCloseDrainsResidue(t *testing.T) {
	for name, q := range closableQueues(16) {
		t.Run(name, func(t *testing.T) {
			vals := make([]int, 10)
			for i := range vals {
				vals[i] = i
				if !q.Enqueue(&vals[i]) {
					t.Fatalf("enqueue %d failed", i)
				}
			}
			Close(q)
			if q.Len() != 10 {
				t.Fatalf("Len after close = %d, want 10 (residue must survive)", q.Len())
			}
			for i := range vals {
				v, ok := q.Dequeue()
				if !ok {
					t.Fatalf("dequeue %d after close returned empty", i)
				}
				if *v != i {
					t.Fatalf("dequeue %d = %d, want %d (FIFO order lost)", i, *v, i)
				}
			}
			if _, ok := q.Dequeue(); ok {
				t.Fatal("dequeue past residue returned an element")
			}
		})
	}
}

// TestCloseBatchFailsFast checks that the batch enqueue paths honor the
// close flag too, counting the whole rejected batch as drops.
func TestCloseBatchFailsFast(t *testing.T) {
	t.Run("spsc", func(t *testing.T) {
		q := NewSPSC[int](8)
		q.Close()
		if n := q.EnqueueBatch([]int{1, 2, 3}); n != 0 {
			t.Fatalf("EnqueueBatch after close accepted %d", n)
		}
		if q.Drops() != 3 {
			t.Fatalf("drops = %d, want 3", q.Drops())
		}
	})
	t.Run("mpsc", func(t *testing.T) {
		q := NewMPSC[int](8)
		q.Close()
		if n := q.EnqueueBatch([]int{1, 2, 3}); n != 0 {
			t.Fatalf("EnqueueBatch after close accepted %d", n)
		}
		if q.Drops() != 3 {
			t.Fatalf("drops = %d, want 3", q.Drops())
		}
	})
}

// TestSPSCCloseConcurrent races one producer against Close while the
// consumer drains: conservation must hold — every enqueue either succeeded
// (and is eventually dequeued) or was counted as a drop. Run under -race.
func TestSPSCCloseConcurrent(t *testing.T) {
	q := NewSPSC[int](64)
	const attempts = 10000

	var accepted int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < attempts; i++ {
			if q.Enqueue(i) {
				accepted++
			}
			if i == attempts/2 {
				q.Close() // any goroutine may close
			}
		}
	}()

	var consumed int64
	for {
		if _, ok := q.Dequeue(); ok {
			consumed++
			continue
		}
		if q.Closed() && q.Len() == 0 {
			// Producer may still be running (its rejections only bump
			// drops); wait for it, then drain any racing residue.
			break
		}
	}
	wg.Wait()
	for {
		if _, ok := q.Dequeue(); !ok {
			break
		}
		consumed++
	}

	if consumed != accepted {
		t.Fatalf("consumed %d != accepted %d", consumed, accepted)
	}
	if accepted+q.Drops() != attempts {
		t.Fatalf("accepted %d + drops %d != attempts %d", accepted, q.Drops(), attempts)
	}
}

// TestMPSCCloseConcurrent races several producers against a mid-stream Close
// while the consumer drains. Conservation must hold across all producers:
// attempts == accepted + drops, and the consumer sees exactly the accepted
// elements. Run under -race.
func TestMPSCCloseConcurrent(t *testing.T) {
	q := NewMPSC[int](64)
	const producers = 4
	const perProducer = 4000

	var mu sync.Mutex
	accepted := 0
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mine := 0
			for i := 0; i < perProducer; i++ {
				if q.Enqueue(p*perProducer + i) {
					mine++
				}
				if p == 0 && i == perProducer/2 {
					q.Close()
				}
			}
			mu.Lock()
			accepted += mine
			mu.Unlock()
		}(p)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	consumed := 0
	producersDone := false
	for {
		if _, ok := q.Dequeue(); ok {
			consumed++
			continue
		}
		if producersDone {
			break
		}
		select {
		case <-done:
			producersDone = true
		default:
		}
	}

	if consumed != accepted {
		t.Fatalf("consumed %d != accepted %d", consumed, accepted)
	}
	if total := int64(accepted) + q.Drops(); total != producers*perProducer {
		t.Fatalf("accepted %d + drops %d = %d, want %d",
			accepted, q.Drops(), total, producers*perProducer)
	}
}
