// Distributed-memory emulation: the paper's future-work deployment. Each
// emulated rank owns a block of coordinates, iterates restricted
// Randomized Gauss–Seidel against its private (stale) copy of the iterate,
// and ships updates over bounded message queues — no shared memory at all.
// The queue capacity is the physical realisation of the delay bound τ:
// sweep it and watch the staleness/throughput trade-off.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	asyrgs "github.com/asynclinalg/asyrgs"
)

func main() {
	const n = 4000
	a := asyrgs.RandomSPD(n, 8, 1.5, 31)
	fmt.Println(asyrgs.DescribeMatrix("system", a))
	b, xstar := asyrgs.RHSForSolution(a, 32)
	m, err := asyrgs.GetMethod("asyrgs-distmem")
	if err != nil {
		log.Fatal(err)
	}

	const ranks = 8
	const sweeps = 10
	fmt.Printf("\n%d ranks, %d sweeps per round, message-passing only\n\n", ranks, sweeps)
	fmt.Printf("%-10s %-14s %-14s %-12s %-10s %-10s\n",
		"queue-cap", "rel residual", "A-norm err", "messages", "backlog", "time")
	for _, cap := range []int{1, 4, 16, 64, 256} {
		// Fixed work: one round of sweeps sweeps on every rank.
		x := make([]float64, n)
		start := time.Now()
		res, err := m.Solve(context.Background(), a, b, x, asyrgs.MethodOpts{
			MaxSweeps: sweeps, CheckEvery: sweeps, Workers: ranks, QueueCap: cap, Seed: 33, XStar: xstar,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %-14.3e %-14.3e %-12d %-10d %-10v\n",
			cap, res.Residual, res.ANormErr,
			res.Messages, res.MaxQueue, time.Since(start).Round(time.Millisecond))
	}

	// Rounds-to-tolerance with a mid-size budget: one residual check per
	// round of sweeps sweeps, at most 100 rounds.
	x := make([]float64, n)
	start := time.Now()
	res, err := m.Solve(context.Background(), a, b, x, asyrgs.MethodOpts{
		Tol: 1e-8, MaxSweeps: 100 * sweeps, CheckEvery: sweeps, Workers: ranks, QueueCap: 16, Seed: 34,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nto 1e-8: %d rounds of %d sweeps in %v (residual %.2e)\n",
		res.Checks, sweeps, time.Since(start).Round(time.Millisecond), res.Residual)
	fmt.Println("each round boundary is a global synchronization — the distributed\nversion of the paper's occasional-synchronization scheme.")
}
