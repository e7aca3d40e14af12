package method

import (
	"errors"
	"testing"

	"github.com/asynclinalg/asyrgs/internal/sparse"
)

// The full built-in roster every driver may rely on.
var wantBuiltins = []string{
	"asyncjacobi", "asyrgs", "asyrgs-distmem", "asyrgs-nonatomic",
	"asyrgs-partitioned", "asyrgs-weighted", "cg", "fcg", "gs", "jacobi",
	"kaczmarz", "lsqcd", "lsqcd-async", "rgs",
}

func TestBuiltinsRegistered(t *testing.T) {
	names := Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, want := range wantBuiltins {
		if !got[want] {
			t.Fatalf("built-in %q missing from registry (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("no-such-solver"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register must panic")
		}
	}()
	Register(&funcMethod{name: "cg", kind: SPD,
		prepare: func(a *sparse.CSR) (PreparedSystem, error) {
			return nil, nil
		}})
}

func TestByKindPartitionsRegistry(t *testing.T) {
	spd, lsq := ByKind(SPD), ByKind(LeastSquares)
	if len(spd)+len(lsq) != len(All()) {
		t.Fatalf("kinds do not partition the registry: %d + %d != %d", len(spd), len(lsq), len(All()))
	}
	for _, m := range spd {
		if m.Kind() != SPD {
			t.Fatalf("%s misfiled", m.Name())
		}
	}
	if SPD.String() != "spd" || LeastSquares.String() != "least-squares" {
		t.Fatal("Kind.String mismatch")
	}
}
