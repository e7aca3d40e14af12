package load

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/asynclinalg/asyrgs/internal/rng"
	"github.com/asynclinalg/asyrgs/internal/serve"
)

// Scenario is one reusable traffic shape. Next is a pure function of the
// run options, the client's private deterministic stream, and the
// request's position — two runs with the same options issue the same
// request sequence per client, which is what lets the soak harness
// assert exact accounting invariants.
type Scenario struct {
	Name        string
	Description string
	Next        func(o Options, g *rng.Sequential, client, i int) Request
}

// scenarios is the catalogue; Register order is alphabetical via
// Scenarios().
var scenarios = map[string]Scenario{}

func register(s Scenario) { scenarios[s.Name] = s }

// Scenarios returns the catalogue sorted by name.
func Scenarios() []Scenario {
	out := make([]Scenario, 0, len(scenarios))
	for _, s := range scenarios {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup resolves a scenario name, listing the catalogue on a miss.
func Lookup(name string) (Scenario, error) {
	if s, ok := scenarios[name]; ok {
		return s, nil
	}
	names := make([]string, 0, len(scenarios))
	for _, s := range Scenarios() {
		names = append(names, s.Name)
	}
	return Scenario{}, fmt.Errorf("load: unknown scenario %q (known: %s)", name, strings.Join(names, ", "))
}

// gridSide returns the 2D-Laplacian grid side yielding about n unknowns.
func gridSide(n int) int {
	side := int(math.Sqrt(float64(n)))
	if side < 2 {
		side = 2
	}
	return side
}

// clientRHS draws a right-hand side from the client's stream.
func clientRHS(g *rng.Sequential, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*g.Float64() - 1
	}
	return b
}

// perRequestSeed spreads (client, i) into distinct 64-bit seeds.
func perRequestSeed(client, i int) uint64 {
	return uint64(client)<<32 | uint64(uint32(i))
}

// zipfCDFs caches the unnormalized cumulative power-law weights per
// (n, s), so the mixed scenario's hot loop stops recomputing the O(n)
// normalization (and its n math.Pow calls) on every single draw.
var zipfCDFs sync.Map // zipfCDFKey -> []float64

type zipfCDFKey struct {
	n int
	s float64
}

// zipfCDF returns the cumulative weights cum[r] = Σ_{k≤r} (k+1)^-s,
// building them once per (n, s). The partial sums are accumulated in
// the same left-to-right order the old per-draw walk used, so every
// entry is bit-identical to the running value that walk compared
// against.
func zipfCDF(n int, s float64) []float64 {
	key := zipfCDFKey{n: n, s: s}
	if v, ok := zipfCDFs.Load(key); ok {
		return v.([]float64)
	}
	cdf := make([]float64, n)
	var cum float64
	for r := 0; r < n; r++ {
		cum += math.Pow(float64(r+1), -s)
		cdf[r] = cum
	}
	v, _ := zipfCDFs.LoadOrStore(key, cdf)
	return v.([]float64)
}

// zipfPick draws a catalogue rank with P(r) ∝ 1/(r+1)^s — the skewed
// matrix popularity of real serving traffic (a few hot systems, a long
// cold tail). One uniform draw plus a binary search over the cached
// CDF; the draw sequence is exactly the old linear walk's (same single
// g.Float64() call, same partial sums, same tie rule u <= cum[r]).
func zipfPick(g *rng.Sequential, n int, s float64) int {
	cdf := zipfCDF(n, s)
	u := g.Float64() * cdf[n-1]
	if r := sort.SearchFloat64s(cdf, u); r < n {
		return r
	}
	return n - 1
}

func init() {
	register(Scenario{
		Name: "warm-repeat",
		Description: "every client repeat-solves one matrix with fresh right-hand sides: " +
			"after the first request the prep cache serves everything, and concurrent " +
			"identical requests coalesce into shared batches",
		Next: func(o Options, g *rng.Sequential, client, i int) Request {
			return Request{Solve: serve.SolveRequest{
				Matrix: serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: 1},
				Method: "asyrgs",
				Tol:    1e-6, MaxSweeps: 2000, Workers: 2,
				RHSSeed: perRequestSeed(client, i),
			}}
		},
	})

	register(Scenario{
		Name: "cold-churn",
		Description: "every request builds a distinct matrix, overflowing the built-matrix " +
			"and prepared-system LRUs: the all-miss path of cache eviction under load",
		Next: func(o Options, g *rng.Sequential, client, i int) Request {
			return Request{Solve: serve.SolveRequest{
				Matrix: serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: perRequestSeed(client, i) + 100},
				Method: "asyrgs",
				Tol:    1e-6, MaxSweeps: 2000, Workers: 2,
				RHSSeed: perRequestSeed(client, i),
			}}
		},
	})

	register(Scenario{
		Name: "batch-burst",
		Description: "alternating explicit multi-RHS batches and coalescable single solves " +
			"against one shared Laplacian — the batched-serving hot path",
		Next: func(o Options, g *rng.Sequential, client, i int) Request {
			side := gridSide(o.N)
			req := serve.SolveRequest{
				Matrix: serve.MatrixSpec{Kind: "laplacian2d", N: side},
				Method: "asyrgs",
				Tol:    1e-6, MaxSweeps: 4000, Workers: 2,
			}
			if i%2 == 0 {
				rows := side * side
				req.Bs = [][]float64{clientRHS(g, rows), clientRHS(g, rows), clientRHS(g, rows)}
			} else {
				req.RHSSeed = perRequestSeed(client, i)
			}
			return Request{Solve: req}
		},
	})

	register(Scenario{
		Name: "distmem",
		Description: "sharded distributed-memory solves (asyrgs-distmem): the deployment-shape " +
			"prep key, per-rank queues and message accounting under concurrent load",
		Next: func(o Options, g *rng.Sequential, client, i int) Request {
			return Request{Solve: serve.SolveRequest{
				Matrix: serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: 2},
				Method: "asyrgs-distmem",
				Tol:    1e-6, MaxSweeps: 2000, Workers: 2, QueueCap: 2,
				RHSSeed: perRequestSeed(client, i),
			}}
		},
	})

	register(Scenario{
		Name: "cancel",
		Description: "mid-flight cancellations: unreachable-tolerance solves abandoned after " +
			"a few milliseconds, interleaved with normal warm solves — the server must shed " +
			"the abandoned work and keep serving",
		Next: func(o Options, g *rng.Sequential, client, i int) Request {
			side := gridSide(4 * o.N)
			if i%4 == 3 {
				return Request{Solve: serve.SolveRequest{
					Matrix: serve.MatrixSpec{Kind: "laplacian2d", N: side},
					Method: "asyrgs",
					Tol:    1e-6, MaxSweeps: 4000, Workers: 2,
					RHSSeed: perRequestSeed(client, i),
				}}
			}
			// Seed is part of the batch key but not the prep key: a unique
			// seed per request keeps abandoned solves out of shared batches
			// (whose multi-client context deliberately ignores one member's
			// cancellation) without losing prep-cache warmth.
			return Request{
				Solve: serve.SolveRequest{
					Matrix: serve.MatrixSpec{Kind: "laplacian2d", N: side},
					Method: "asyrgs",
					Tol:    1e-300, MaxSweeps: 1 << 30, Workers: 2,
					Seed:    perRequestSeed(client, i) + 1,
					RHSSeed: perRequestSeed(client, i),
				},
				CancelAfter: time.Duration(4+g.Intn(12)) * time.Millisecond,
			}
		},
	})

	register(Scenario{
		Name: "mixed",
		Description: "zipfian matrix popularity over the workload generators × a roster of " +
			"methods (shared-memory, Krylov, Kaczmarz, least-squares, sharded distmem), with " +
			"periodic explicit batches — the everything-at-once serving soak",
		Next: func(o Options, g *rng.Sequential, client, i int) Request {
			side := gridSide(o.N)
			type entry struct {
				spec     serve.MatrixSpec
				method   string
				sweeps   int
				workers  int
				queueCap int
			}
			catalogue := []entry{
				{serve.MatrixSpec{Kind: "laplacian2d", N: side}, "asyrgs", 4000, 2, 0},
				{serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: 1}, "asyrgs", 2000, 2, 0},
				{serve.MatrixSpec{Kind: "laplacian2d", N: side}, "cg", 2000, 2, 0},
				{serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: 1}, "kaczmarz", 80000, 2, 0},
				{serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: 2}, "asyrgs-distmem", 2000, 2, 2},
				{serve.MatrixSpec{Kind: "socialgram", N: o.N / 2, Seed: 8}, "fcg", 2000, 2, 0},
				{serve.MatrixSpec{Kind: "overdetermined", Rows: 2 * o.N, Cols: o.N / 2, NNZ: 4, Seed: 4}, "lsqcd", 40000, 0, 0},
				{serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: 5}, "rgs", 4000, 0, 0},
				{serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: 6}, "jacobi", 8000, 2, 0},
				{serve.MatrixSpec{Kind: "randomspd", N: o.N, NNZ: 5, Seed: 7}, "gs", 2000, 0, 0},
			}
			e := catalogue[zipfPick(g, len(catalogue), 1.1)]
			req := serve.SolveRequest{
				Matrix: e.spec, Method: e.method,
				Tol: 1e-6, MaxSweeps: e.sweeps, Workers: e.workers, QueueCap: e.queueCap,
				RHSSeed: perRequestSeed(client, i),
			}
			if i%8 == 7 && e.spec.Kind == "laplacian2d" {
				rows := side * side
				req.RHSSeed = 0
				req.Bs = [][]float64{clientRHS(g, rows), clientRHS(g, rows)}
			}
			return Request{Solve: req}
		},
	})
}
