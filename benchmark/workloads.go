package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"

	"github.com/asynclinalg/asyrgs/internal/serve"
)

// request is one generated /solve call plus what the client needs to check
// the answer from outside the daemon.
type request struct {
	body []byte
	tol  float64
	// rhs is the number of right-hand sides the request asks for (the
	// length of an explicit bs batch, else 1).
	rhs int
	// mm and b are the uploaded system (upload only): the client
	// recomputes ‖b − A·x‖/‖b‖ from them and the returned x.
	mm *mmMatrix
	b  []float64
}

// traffic is one workload. Each client draws its requests from its own
// deterministic stream, so a seed fixes every input the daemon receives.
type traffic struct {
	name string
	// clients is the number of closed-loop client goroutines, each with one
	// connection: it sends its next request only after the previous reply.
	clients int
	// tailQ is the latency quantile reported as latency_tail_ms: the
	// highest one with at least ten samples beyond it at this workload's
	// rate over one run.
	tailQ float64
	// warmup is the number of untimed requests per client before timing
	// starts: enough to fill the caches this workload reuses.
	warmup int
	// cacheSize is the daemon's built-matrix and prepared-system LRU size;
	// 0 keeps the daemon defaults (16 matrices, 64 prepared systems).
	cacheSize int
	// stream returns client c's request generator for a seed.
	stream func(seed uint64, client int) func() request
}

// workloads is the benchmark's traffic catalogue, in the order runs and
// reports list them.
var workloads = []traffic{
	{
		// Every request is a never-seen generator spec, so the matrix build
		// and Prepare run on each one: the cold path. The LRUs can never
		// hit, so they are kept at two entries; at the default sizes a
		// 20000×64 churn pins about 2.5 GB of dead systems, which measures
		// the cache capacity instead of the request.
		name: "cold-gen", clients: 1, tailQ: 0.75, warmup: 2, cacheSize: 2,
		stream: coldGenStream,
	},
	{
		// A client sends its own system as inline MatrixMarket text with an
		// explicit b and asks for x back: request decode, ReadMM and the
		// encoding of x are on the path. Same cache sizing as cold-gen.
		name: "upload", clients: 1, tailQ: 0.75, warmup: 2, cacheSize: 2,
		stream: uploadStream,
	},
	{
		// Two clients repeat-solve one cached large system with fresh
		// right-hand sides: after the first request only the solver's hot
		// loop remains.
		name: "warm-large", clients: 2, tailQ: 0.95, warmup: 3,
		stream: warmLargeStream,
	},
	{
		// Zipfian traffic over a fixed catalogue of tiny systems and nine
		// methods: solves take about a millisecond, so the serving layer
		// (HTTP, caches, coalescer, admission gate) is a large share. The
		// warm-up is each client's sweep over the whole catalogue.
		name: "mixed-small", clients: 2, tailQ: 0.99, warmup: len(mixedCatalogue),
		stream: mixedSmallStream,
	},
}

func lookupWorkload(name string) (traffic, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return traffic{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// Stream identifiers keep the per-purpose random streams of one seed apart.
const (
	streamClient = 0x6265_6e63_6800 // + client index
	streamSystem = 0x7379_7374_656d
)

func clientRand(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, streamClient+uint64(client)))
}

const solveTol = 1e-6

// largeN and largeNNZ size the large generated systems (cold-gen,
// warm-large): build and solve each take a few hundred milliseconds.
const (
	largeN   = 20000
	largeNNZ = 64
)

func mustMarshal(r serve.SolveRequest) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("marshal solve request: %v", err)) // plain struct: cannot fail
	}
	return b
}

func coldGenStream(seed uint64, client int) func() request {
	r := clientRand(seed, client)
	return func() request { return largeRequest(r.Uint64(), r.Uint64()) }
}

func warmLargeStream(seed uint64, client int) func() request {
	system := rand.New(rand.NewPCG(seed, streamSystem)).Uint64()
	r := clientRand(seed, client)
	return func() request { return largeRequest(system, r.Uint64()) }
}

// largeRequest asks asyrgs with two workers to solve the large randomspd
// system with matrix seed system, for the right-hand side of rhsSeed.
func largeRequest(system, rhsSeed uint64) request {
	return request{tol: solveTol, rhs: 1, body: mustMarshal(serve.SolveRequest{
		Matrix:  serve.MatrixSpec{Kind: "randomspd", N: largeN, NNZ: largeNNZ, Seed: system},
		Method:  "asyrgs",
		Tol:     solveTol,
		Workers: 2,
		RHSSeed: rhsSeed,
	})}
}

// Upload systems: n unknowns, uploadPerRow off-diagonal draws per row of
// the stored lower triangle (about twice that per row of the full matrix),
// which makes a body of about 7 MB.
const (
	uploadN      = 20000
	uploadPerRow = 16
	dominance    = 1.5
)

func uploadStream(seed uint64, client int) func() request {
	r := clientRand(seed, client)
	return func() request {
		m := genMM(r, uploadN, uploadPerRow, dominance)
		b := make([]float64, m.n)
		for i := range b {
			b[i] = sixDigits(r)
		}
		return request{tol: solveTol, rhs: 1, mm: m, b: b, body: uploadBody(m, b)}
	}
}

// uploadBody writes the /solve JSON for an inline MatrixMarket upload
// directly, escaping line breaks as it goes; marshalling a 7 MB string
// through encoding/json would double the client's work per request.
func uploadBody(m *mmMatrix, b []float64) []byte {
	out := make([]byte, 0, 24*len(m.vals)+24*len(b)+256)
	out = append(out, `{"matrix":{"kind":"mm","mm":"`...)
	out = m.appendMM(out, `\n`)
	out = append(out, `"},"method":"asyrgs","b":[`...)
	for i, v := range b {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendFloat(out, v, 'g', -1, 64)
	}
	out = append(out, `],"tol":`...)
	out = strconv.AppendFloat(out, solveTol, 'g', -1, 64)
	out = append(out, `,"workers":2,"include_solution":true}`...)
	return out
}

// sixDigits draws a value uniform on [-1, 1] with six decimals, so its
// shortest decimal form is short and parses back to the same float64.
func sixDigits(r *rand.Rand) float64 {
	return float64(r.IntN(2_000_001)-1_000_000) / 1e6
}

// mmMatrix is a symmetric strictly diagonally dominant (hence SPD) matrix
// held as its lower triangle in coordinate form, exactly as uploaded.
type mmMatrix struct {
	n          int
	rows, cols []int32
	vals       []float64
}

// genMM draws perRow off-diagonal entries per row (fewer when a draw hits
// the diagonal), stores each in the lower triangle, and sets every
// diagonal entry to dominance × the row's absolute off-diagonal sum,
// rounded up to six decimals so rounding cannot weaken the dominance.
func genMM(r *rand.Rand, n, perRow int, dominance float64) *mmMatrix {
	m := &mmMatrix{n: n}
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			j := r.IntN(n)
			if j == i {
				continue
			}
			hi, lo := max(i, j), min(i, j)
			v := sixDigits(r)
			m.rows = append(m.rows, int32(hi))
			m.cols = append(m.cols, int32(lo))
			m.vals = append(m.vals, v)
			rowAbs[hi] += math.Abs(v)
			rowAbs[lo] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		d := math.Ceil(dominance*rowAbs[i]*1e6) / 1e6
		if d == 0 {
			d = 1
		}
		m.rows = append(m.rows, int32(i))
		m.cols = append(m.cols, int32(i))
		m.vals = append(m.vals, d)
	}
	return m
}

// appendMM appends the MatrixMarket symmetric coordinate text of m, with
// sep between lines.
func (m *mmMatrix) appendMM(dst []byte, sep string) []byte {
	dst = append(dst, "%%MatrixMarket matrix coordinate real symmetric"...)
	dst = append(dst, sep...)
	dst = strconv.AppendInt(dst, int64(m.n), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(m.n), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(m.vals)), 10)
	for k, v := range m.vals {
		dst = append(dst, sep...)
		dst = strconv.AppendInt(dst, int64(m.rows[k])+1, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(m.cols[k])+1, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, sep...)
}

// mulVec sets y = A·x, mirroring each stored off-diagonal entry.
func (m *mmMatrix) mulVec(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for k, v := range m.vals {
		i, j := m.rows[k], m.cols[k]
		y[i] += v * x[j]
		if i != j {
			y[j] += v * x[i]
		}
	}
}

// relResidual returns ‖b − A·x‖₂/‖b‖₂.
func (m *mmMatrix) relResidual(b, x []float64) float64 {
	ax := make([]float64, m.n)
	m.mulVec(ax, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// catalogueEntry is one system × method pair of mixed-small's catalogue.
type catalogueEntry struct {
	spec                      serve.MatrixSpec
	method                    string
	sweeps, workers, queueCap int
}

// mixedN sizes mixed-small's systems; mixedSide is the 2D-Laplacian grid
// side with about mixedN unknowns.
const (
	mixedN    = 96
	mixedSide = 9
)

// mixedCatalogue is a copy of the daemon-soak "mixed" scenario's catalogue
// at n = mixedN, kept here so that changing the load package cannot change
// this benchmark's traffic. One change: every method runs one worker. At
// this size a second worker only adds cross-core contention on the shared
// iterate (kaczmarz takes about 10 ms per solve with two workers and 5 ms
// with one), and that contention made the workload's CPU and latency
// follow the host's scheduling of the two CPUs instead of the daemon.
var mixedCatalogue = []catalogueEntry{
	{serve.MatrixSpec{Kind: "laplacian2d", N: mixedSide}, "asyrgs", 4000, 1, 0},
	{serve.MatrixSpec{Kind: "randomspd", N: mixedN, NNZ: 5, Seed: 1}, "asyrgs", 2000, 1, 0},
	{serve.MatrixSpec{Kind: "laplacian2d", N: mixedSide}, "cg", 2000, 1, 0},
	{serve.MatrixSpec{Kind: "randomspd", N: mixedN, NNZ: 5, Seed: 1}, "kaczmarz", 80000, 1, 0},
	{serve.MatrixSpec{Kind: "randomspd", N: mixedN, NNZ: 5, Seed: 2}, "asyrgs-distmem", 2000, 1, 2},
	{serve.MatrixSpec{Kind: "socialgram", N: mixedN / 2, Seed: 8}, "fcg", 2000, 1, 0},
	{serve.MatrixSpec{Kind: "overdetermined", Rows: 2 * mixedN, Cols: mixedN / 2, NNZ: 4, Seed: 4}, "lsqcd", 40000, 1, 0},
	{serve.MatrixSpec{Kind: "randomspd", N: mixedN, NNZ: 5, Seed: 5}, "rgs", 4000, 1, 0},
	{serve.MatrixSpec{Kind: "randomspd", N: mixedN, NNZ: 5, Seed: 6}, "jacobi", 8000, 1, 0},
	{serve.MatrixSpec{Kind: "randomspd", N: mixedN, NNZ: 5, Seed: 7}, "gs", 2000, 1, 0},
}

// zipfCDF holds the cumulative weights (r+1)^-1.1 over the catalogue ranks.
var zipfCDF = func() []float64 {
	cdf := make([]float64, len(mixedCatalogue))
	var cum float64
	for r := range cdf {
		cum += math.Pow(float64(r+1), -1.1)
		cdf[r] = cum
	}
	return cdf
}()

// zipfPick draws a catalogue rank with P(r) ∝ (r+1)^-1.1.
func zipfPick(r *rand.Rand) int {
	u := r.Float64() * zipfCDF[len(zipfCDF)-1]
	return min(sort.SearchFloat64s(zipfCDF, u), len(zipfCDF)-1)
}

func mixedSmallStream(seed uint64, client int) func() request {
	r := clientRand(seed, client)
	i := 0
	return func() request {
		// The first len(mixedCatalogue) requests visit every entry once, so
		// the warm-up builds and prepares every system whatever the seed.
		k := i
		if i >= len(mixedCatalogue) {
			k = zipfPick(r)
		}
		e := mixedCatalogue[k]
		req := serve.SolveRequest{
			Matrix: e.spec, Method: e.method,
			Tol: solveTol, MaxSweeps: e.sweeps, Workers: e.workers, QueueCap: e.queueCap,
			RHSSeed: r.Uint64(),
		}
		rhs := 1
		// Every eighth Laplacian request is an explicit two-column batch.
		if i%8 == 7 && e.spec.Kind == "laplacian2d" {
			req.RHSSeed = 0
			rows := mixedSide * mixedSide
			req.Bs = [][]float64{make([]float64, rows), make([]float64, rows)}
			for _, b := range req.Bs {
				for k := range b {
					b[k] = 2*r.Float64() - 1
				}
			}
			rhs = len(req.Bs)
		}
		i++
		return request{tol: solveTol, rhs: rhs, body: mustMarshal(req)}
	}
}
