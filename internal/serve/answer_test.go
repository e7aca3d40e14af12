package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/asynclinalg/asyrgs/internal/method"
)

// TestWriteJSONEncodesBeforeItSends: a reply JSON cannot encode sends
// no header and no body, and the error wraps errEncode, so the caller can
// still answer 500.
func TestWriteJSONEncodesBeforeItSends(t *testing.T) {
	rec := httptest.NewRecorder()
	err := writeJSON(rec, http.StatusOK, SolveResponse{Residual: math.NaN()})
	if !errors.Is(err, errEncode) {
		t.Fatalf("err %v, want errEncode", err)
	}
	if rec.Body.Len() != 0 || len(rec.Header()) != 0 || rec.Flushed {
		t.Fatalf("sent %d bytes and headers %v before the encode failed", rec.Body.Len(), rec.Header())
	}
	New(Config{}).answer(rec, err)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d after an encode failure, want 500", rec.Code)
	}
}

// TestAnswerStatusTable pins answer's table: the status each class of
// failure gets, wrapped or not, the counter it moves (rejected for work
// shed or abandoned, errors for the rest), the Retry-After hint on a
// shed request only, and a JSON error body on every reply.
func TestAnswerStatusTable(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		code       int
		rejected   bool
		retryAfter string
		mentions   string
	}{
		{"at-capacity", errAtCapacity, http.StatusServiceUnavailable, true, "2", "capacity"},
		{"client-gone", context.Canceled, http.StatusServiceUnavailable, true, "", "canceled"},
		{"timeout", fmt.Errorf("solve: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, false, "", "deadline"},
		{"panic", fmt.Errorf("prepare: %w", errPanic), http.StatusInternalServerError, false, "", "panic"},
		{"unencodable", fmt.Errorf("%w: json: unsupported value: NaN", errEncode), http.StatusInternalServerError, false, "", "NaN"},
		{"non-finite", fmt.Errorf("solve failed: method jacobi: %w: +Inf at sweep 140", method.ErrNonFinite), http.StatusUnprocessableEntity, false, "", "sweep 140"},
		{"bad-request", errors.New("unknown matrix kind \"nope\""), http.StatusBadRequest, false, "", "nope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{QueueTimeout: 1500 * time.Millisecond})
			rec := httptest.NewRecorder()
			s.answer(rec, tc.err)
			if rec.Code != tc.code {
				t.Fatalf("status %d, want %d", rec.Code, tc.code)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], tc.mentions) {
				t.Fatalf("body %q; want a JSON error mentioning %q", rec.Body.String(), tc.mentions)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Fatalf("Retry-After %q, want %q", got, tc.retryAfter)
			}
			st := s.snapshot()
			wantRejected, wantErrors := uint64(0), uint64(1)
			if tc.rejected {
				wantRejected, wantErrors = 1, 0
			}
			if st.Rejected != wantRejected || st.Errors != wantErrors || st.Solved != 0 {
				t.Fatalf("rejected %d, errors %d, solved %d; want %d, %d and 0",
					st.Rejected, st.Errors, st.Solved, wantRejected, wantErrors)
			}
		})
	}
}
