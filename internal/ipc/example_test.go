package ipc_test

import (
	"fmt"

	"lvrm/internal/ipc"
)

// The lock-free ring is the paper's default IPC queue: one producer, one
// consumer, no locks.
func ExampleSPSC() {
	q := ipc.NewSPSC[string](8)
	q.Enqueue("frame-1")
	q.Enqueue("frame-2")
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// frame-1
	// frame-2
}
