package lpltsp_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lpltsp"
	"lpltsp/internal/core"
)

// The golden corpus: checked-in instances with brute-force-verified
// optimal spans (testdata/corpus/manifest.json). These tests lock in the
// solver's correctness surface — every method that claims exactness on an
// instance must deliver λ* with a Verify-clean labeling — so the serving
// layer and future engine work cannot silently regress λ values.

type corpusEntry struct {
	File   string        `json:"file"`
	P      lpltsp.Vector `json:"p"`
	Lambda int           `json:"lambda"`
	Exact  bool          `json:"exact"`
	Note   string        `json:"note"`
}

type corpusManifest struct {
	Entries []corpusEntry `json:"entries"`
}

func loadCorpus(t *testing.T) []corpusEntry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "corpus", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m corpusManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) == 0 {
		t.Fatal("empty corpus manifest")
	}
	return m.Entries
}

func loadCorpusGraph(t *testing.T, file string) *lpltsp.Graph {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "corpus", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := lpltsp.ReadGraph(f)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return g
}

func corpusName(e corpusEntry) string {
	return fmt.Sprintf("%s/p=%v", e.File, e.P)
}

// TestCorpusAutoRoute solves every corpus instance through the free
// planner: the labeling must verify, exact claims must hit λ*, and even
// approximate routes may never undercut the optimum.
func TestCorpusAutoRoute(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(corpusName(e), func(t *testing.T) {
			g := loadCorpusGraph(t, e.File)
			res, err := lpltsp.Solve(g, e.P, &lpltsp.Options{Verify: true, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := lpltsp.Verify(g, e.P, res.Labeling); err != nil {
				t.Fatalf("labeling invalid (method %s): %v", res.Method, err)
			}
			if res.Exact != e.Exact {
				t.Fatalf("exactness: got %v (method %s), manifest says %v", res.Exact, res.Method, e.Exact)
			}
			if e.Exact {
				if res.Span != e.Lambda {
					t.Fatalf("span %d (method %s), want λ* = %d", res.Span, res.Method, e.Lambda)
				}
			} else if res.Span < e.Lambda {
				t.Fatalf("span %d beats the optimum %d: the manifest or a solver is wrong", res.Span, e.Lambda)
			}
		})
	}
}

// TestCorpusEveryExactMethod asks the planner which methods apply to each
// instance and pins every one that claims exactness: each must return λ*
// with a Verify-clean labeling. This sweeps the whole method registry —
// including methods registered after this test was written.
func TestCorpusEveryExactMethod(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(corpusName(e), func(t *testing.T) {
			g := loadCorpusGraph(t, e.File)
			pl, err := lpltsp.Explain(g, e.P, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(pl.Sub) > 0 {
				// Disconnected: methods are per component; the auto-route
				// test covers the merged solve. Check the decomposition's
				// own claim instead.
				if pl.Chosen != lpltsp.MethodComponents {
					t.Fatalf("disconnected instance routed to %s", pl.Chosen)
				}
				return
			}
			tested := 0
			for _, c := range pl.Candidates {
				if !c.Applicable || !c.Exact {
					continue
				}
				tested++
				res, err := lpltsp.Solve(g, e.P, &lpltsp.Options{
					Method:  c.Method,
					Verify:  true,
					NoCache: true,
				})
				if err != nil {
					t.Fatalf("method %s: %v", c.Method, err)
				}
				if err := lpltsp.Verify(g, e.P, res.Labeling); err != nil {
					t.Fatalf("method %s: labeling invalid: %v", c.Method, err)
				}
				if res.Span != e.Lambda {
					t.Fatalf("method %s claims exact, returned span %d, λ* = %d", c.Method, res.Span, e.Lambda)
				}
				if !res.Exact {
					t.Fatalf("method %s was planned exact but result says otherwise", c.Method)
				}
			}
			if e.Exact && tested == 0 {
				t.Fatal("manifest says exact but no method claims exactness")
			}
		})
	}
}

// TestCorpusMatchesBruteForce re-derives λ* from scratch for the entries
// within brute-force reach, keeping the manifest honest against edits.
func TestCorpusMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force sweep skipped in -short")
	}
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(corpusName(e), func(t *testing.T) {
			g := loadCorpusGraph(t, e.File)
			if g.N() > 9 {
				t.Skip("beyond the cheap brute-force budget")
			}
			_, lambda, err := lpltsp.BruteForceExact(g, e.P)
			if err != nil {
				t.Fatal(err)
			}
			if lambda != e.Lambda {
				t.Fatalf("manifest λ* = %d, brute force says %d", e.Lambda, lambda)
			}
		})
	}
}

// TestCorpusLowerBound checks the reduction's spanning-tree bound against
// λ* on every entry the reduction reaches: a bound above λ* would let the
// planner certify a non-optimal path as exact.
func TestCorpusLowerBound(t *testing.T) {
	reached := 0
	for _, e := range loadCorpus(t) {
		red, err := core.Reduce(loadCorpusGraph(t, e.File), e.P)
		if err != nil {
			continue
		}
		reached++
		if lb := red.LowerBound(); lb > int64(e.Lambda) {
			t.Errorf("%s: bound %d above λ* = %d", corpusName(e), lb, e.Lambda)
		}
	}
	if reached == 0 {
		t.Fatal("the reduction reaches no corpus entry")
	}
}

// TestCorpusBinaryRoundTrip pushes every corpus instance through the
// binary wire form and checks the decoded graph is interchangeable with
// the original: same size, same canonical JSON encoding, and the same
// solver outcome on the manifest's constraint vector.
func TestCorpusBinaryRoundTrip(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(corpusName(e), func(t *testing.T) {
			g := loadCorpusGraph(t, e.File)
			frame := lpltsp.AppendGraphBinary(nil, g)
			dec, rest, err := lpltsp.DecodeGraphBinary(frame)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d trailing bytes after frame", len(rest))
			}
			if dec.N() != g.N() || dec.M() != g.M() {
				t.Fatalf("round trip changed size: %d/%d → %d/%d", g.N(), g.M(), dec.N(), dec.M())
			}
			want, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(dec)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("canonical encodings differ:\n got %s\nwant %s", got, want)
			}
			res, err := lpltsp.Solve(dec, e.P, &lpltsp.Options{Verify: true, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if e.Exact && res.Span != e.Lambda {
				t.Fatalf("decoded instance solved to span %d, want λ* = %d", res.Span, e.Lambda)
			}
		})
	}
}

// TestCorpusBatch pushes the whole corpus through SolveBatch — the same
// path lplserve's /v1/batch uses — and checks every exact-claiming
// stream element against λ*.
func TestCorpusBatch(t *testing.T) {
	entries := loadCorpus(t)
	items := make([]lpltsp.BatchItem, len(entries))
	for i, e := range entries {
		items[i] = lpltsp.BatchItem{ID: corpusName(e), G: loadCorpusGraph(t, e.File), P: e.P}
	}
	seen := 0
	for br := range lpltsp.SolveBatch(t.Context(), items, nil) {
		seen++
		if br.Err != nil {
			t.Errorf("%s: %v", br.ID, br.Err)
			continue
		}
		e := entries[br.Index]
		if e.Exact && br.Result.Span != e.Lambda {
			t.Errorf("%s: span %d, want λ* = %d", br.ID, br.Result.Span, e.Lambda)
		}
	}
	if seen != len(items) {
		t.Fatalf("stream delivered %d results, want %d", seen, len(items))
	}
}
