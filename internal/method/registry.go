package method

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/asynclinalg/asyrgs/internal/sparse"
)

var (
	regMu    sync.RWMutex
	registry = map[string]Method{}
)

// Register adds a method under its Name. It panics on an empty name or a
// duplicate registration — both are programming errors, caught at init.
func Register(m Method) {
	name := m.Name()
	if name == "" {
		panic("method: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("method: duplicate registration of " + name)
	}
	registry[name] = m
}

// Get returns the registered method, or ErrUnknownMethod listing the
// known names.
func Get(name string) (Method, error) {
	regMu.RLock()
	m, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownMethod, name, strings.Join(Names(), ", "))
	}
	return m, nil
}

// Names returns every registered method name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns every registered method, sorted by name.
func All() []Method {
	regMu.RLock()
	defer regMu.RUnlock()
	ms := make([]Method, 0, len(registry))
	for _, m := range registry {
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
	return ms
}

// ByKind returns the registered methods of one kind, sorted by name.
func ByKind(k Kind) []Method {
	var ms []Method
	for _, m := range All() {
		if m.Kind() == k {
			ms = append(ms, m)
		}
	}
	return ms
}

// prepareFunc captures one method family's per-matrix setup. No built-in
// Prepare consumes Opts, so the hook sees only the matrix.
type prepareFunc func(a *sparse.CSR) (PreparedSystem, error)

// funcMethod adapts a prepare hook to the Method interface; every
// built-in is one of these. Solve is the one-shot convenience path —
// prepare plus a single solve — while Prepare exposes the two-phase
// pipeline for callers that amortize setup across many right-hand sides.
type funcMethod struct {
	name    string
	kind    Kind
	prepare prepareFunc
}

func (m *funcMethod) Name() string { return m.name }
func (m *funcMethod) Kind() Kind   { return m.kind }

// Prepare captures the method's per-matrix state for repeated solves.
func (m *funcMethod) Prepare(_ context.Context, a *sparse.CSR, _ Opts) (PreparedSystem, error) {
	return m.prepare(a)
}

func (m *funcMethod) Solve(ctx context.Context, a *sparse.CSR, b, x []float64, opts Opts) (Result, error) {
	ps, err := m.Prepare(ctx, a, opts)
	if err != nil {
		return Result{}, err
	}
	res, err := ps.Solve(ctx, b, x, opts)
	res.Method = m.name
	return res, err
}
