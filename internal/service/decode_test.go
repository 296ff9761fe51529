package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
)

// The oracle for the one-pass request decoders is what the service ran
// before them: a strict encoding/json Decoder reading the first value.
func oracleDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// sameGraph compares two graphs by their CSR arrays (the neighbor rows
// are the CSR segments) and their fingerprint.
func sameGraph(a, b *graph.Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for u := 0; u < a.N(); u++ {
		if !slices.Equal(a.Neighbors(u), b.Neighbors(u)) {
			return false
		}
	}
	a1, a2 := a.Fingerprint()
	b1, b2 := b.Fingerprint()
	return a1 == b1 && a2 == b2
}

// sameSolve reports whether two decoded requests are equal, graphs
// compared by sameGraph and everything else by reflect.DeepEqual (which
// tells a nil slice from an empty one, as the decoders must).
func sameSolve(a, b SolveRequest) bool {
	if !sameGraph(a.Graph, b.Graph) {
		return false
	}
	a.Graph, b.Graph = nil, nil
	return reflect.DeepEqual(a, b)
}

func sameBatch(a, b BatchRequest) bool {
	if len(a.Items) != len(b.Items) || (a.Items == nil) != (b.Items == nil) {
		return false
	}
	for i := range a.Items {
		if !sameSolve(a.Items[i], b.Items[i]) {
			return false
		}
	}
	a.Items, b.Items = nil, nil
	return reflect.DeepEqual(a, b)
}

// checkAgainstOracle decodes body as a SolveRequest and as a
// BatchRequest with both the one-pass decoders and the oracle, and fails
// unless they agree: both reject, or both accept with equal results. A
// body the one-pass decoder rejects for a repeated member is outside the
// contract (the oracle lets the last one win); dup reports whether either
// decode hit that.
func checkAgainstOracle(t *testing.T, body []byte) (solveOK, batchOK, dup bool) {
	t.Helper()
	var want, got SolveRequest
	wantErr := oracleDecode(body, &want)
	gotErr := DecodeSolveBody("application/json", body, &got)
	if errors.Is(gotErr, graph.ErrDuplicateMember) {
		dup = true
	} else {
		switch {
		case wantErr == nil && gotErr != nil:
			t.Fatalf("SolveRequest %q: rejected (%v), encoding/json accepts", body, gotErr)
		case wantErr != nil && gotErr == nil:
			t.Fatalf("SolveRequest %q: accepted, encoding/json rejects (%v)", body, wantErr)
		case gotErr == nil && !sameSolve(got, want):
			t.Fatalf("SolveRequest %q: decoded %+v, encoding/json %+v", body, got, want)
		}
		solveOK = gotErr == nil
	}

	var wantB, gotB BatchRequest
	wantErr = oracleDecode(body, &wantB)
	gotErr = DecodeBatchRequest(body, &gotB)
	if errors.Is(gotErr, graph.ErrDuplicateMember) {
		return solveOK, false, true
	}
	switch {
	case wantErr == nil && gotErr != nil:
		t.Fatalf("BatchRequest %q: rejected (%v), encoding/json accepts", body, gotErr)
	case wantErr != nil && gotErr == nil:
		t.Fatalf("BatchRequest %q: accepted, encoding/json rejects (%v)", body, wantErr)
	case gotErr == nil && !sameBatch(gotB, wantB):
		t.Fatalf("BatchRequest %q: decoded %+v, encoding/json %+v", body, gotB, wantB)
	}
	return solveOK, gotErr == nil, dup
}

// nested wraps a value in depth levels of arrays.
func nested(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

// TestRequestDecodeContract walks the edges of the decoder contract: each
// body must decode as encoding/json decodes it (checked against the
// oracle), and the table pins which of the two request types accept it.
func TestRequestDecodeContract(t *testing.T) {
	const g = `{"n":3,"edges":[[0,1],[1,2]]}`
	cases := []struct {
		name          string
		body          string
		solve, batch  bool // accepted as a SolveRequest, as a BatchRequest
		duplicateSeen bool // rejected for a repeated member (oracle: last wins)
	}{
		{"full solve", `{"id":"a","graph":` + g + `,"p":[2,2,1],"options":{"method":"reduction","algorithm":"portfolio","engines":["nn","2opt"],"verify":false,"noCache":true,"deadlineMs":250},"tenant":"t","explain":true}`, true, false, false},
		{"full batch", `{"items":[{"id":"a","graph":` + g + `,"p":[2,1]},{"graphRef":"ab","p":[1,1]}],"options":{"verify":true},"workers":3,"tenant":"t"}`, false, true, false},
		{"empty object", `{}`, true, true, false},

		// Member names: exact, else folded as encoding/json folds them
		// (ASCII case, the Kelvin sign K and the long s ſ).
		{"case-folded names", `{"ID":"a","Graph":` + g + `,"GRAPHREF":"","P":[2,1],"Options":{"METHOD":"tree","noCACHE":true,"DeadLineMS":5},"TENANT":"t","Explain":false}`, true, false, false},
		{"fold specials", `{"optionſ":{"engineſ":["nn"]},"itemſ":[],"worKers":2}`, false, true, false},
		{"near-miss name", `{"graph_ref":"x"}`, false, false, false},
		{"dotted i is no i", `{"İd":"x"}`, false, false, false},

		// Nulls at each level.
		{"top-level null", `null`, true, true, false},
		{"null members", `{"id":null,"graph":null,"graphRef":null,"p":null,"options":null,"tenant":null,"explain":null}`, true, false, false},
		{"null option members", `{"options":{"method":null,"algorithm":null,"engines":null,"verify":null,"noCache":null,"deadlineMs":null}}`, true, true, false},
		{"null batch members", `{"items":null,"options":null,"workers":null,"tenant":null}`, false, true, false},
		{"null elements", `{"p":[null,1],"options":{"engines":["nn",null]}}`, true, false, false},
		{"null batch item", `{"items":[null,{"id":null}]}`, false, true, false},
		{"empty arrays", `{"p":[],"options":{"engines":[]}}`, true, false, false},
		{"null edge endpoint", `{"graph":{"n":2,"edges":[[null,1]]}}`, true, false, false},

		// Strings: escapes, surrogates, and invalid UTF-8 coerced to U+FFFD.
		{"escapes in id", `{"id":"a\"b\\c\/d\b\f\n\r\té😀"}`, true, false, false},
		{"lone surrogates in id", `{"id":"\ud800x\udc00\ud800A"}`, true, false, false},
		{"invalid UTF-8 in id", "{\"id\":\"a\xffb\xed\xa0\x80c\xe2\x82\"}", true, false, false},
		{"valid UTF-8 in id", `{"id":"ĳ水😀"}`, true, false, false},
		{"control character in id", "{\"id\":\"a\x01\"}", false, false, false},
		{"bad escape in id", `{"id":"\x"}`, false, false, false},
		{"escaped member names", `{"\u0069d":"x","\u0070":[1]}`, true, false, false},

		// Integers: strict, and in range for the Go type.
		{"float in p", `{"p":[1.0]}`, false, false, false},
		{"exponent in p", `{"p":[1e2]}`, false, false, false},
		{"p at int64 limits", `{"p":[9223372036854775807,-9223372036854775808,-0]}`, true, false, false},
		{"p past int64", `{"p":[9223372036854775808]}`, false, false, false},
		{"p below int64", `{"p":[-9223372036854775809]}`, false, false, false},
		{"leading zero in p", `{"p":[01]}`, false, false, false},
		{"deadline past int64", `{"options":{"deadlineMs":99999999999999999999}}`, false, false, false},
		{"workers as float", `{"workers":2.5}`, false, false, false},
		{"string in p", `{"p":["2"]}`, false, false, false},

		// Wrong types at each level.
		{"id as number", `{"id":5}`, false, false, false},
		{"explain as string", `{"explain":"true"}`, false, false, false},
		{"verify as number", `{"options":{"verify":1}}`, false, false, false},
		{"options as array", `{"options":[]}`, false, false, false},
		{"items as object", `{"items":{}}`, false, false, false},
		{"item as number", `{"items":[1]}`, false, false, false},
		{"graph as array", `{"graph":[1]}`, false, false, false},
		{"graph as number", `{"graph":5}`, false, false, false},
		{"top-level array", `[]`, false, false, false},
		{"top-level string", `"x"`, false, false, false},

		// Graph values inside the envelope: both wire forms, the graph's
		// own leniency (unknown members skipped) and its validation.
		{"DIMACS graph", `{"graph":"p edge 3 2\ne 1 2\ne 2 3"}`, true, false, false},
		{"escaped DIMACS graph", `{"graph":"p edge 2 1\u000ae 1 2"}`, true, false, false},
		{"unknown graph member", `{"graph":{"n":2,"edges":[[0,1]],"note":{"a":[1,2.5e3,"s",true]}}}`, true, false, false},
		{"graph edge out of range", `{"graph":{"n":2,"edges":[[0,2]]}}`, false, false, false},
		{"graph self-loop", `{"graph":{"n":2,"edges":[[1,1]]}}`, false, false, false},
		{"graph edge spellings", `{"graph":{"n":3,"edges":[[0, 1],[ 1,2],[-0,2],[2,1 ]]}}`, true, false, false},

		// Unknown members are rejected at every level.
		{"unknown member", `{"graf":{"n":2}}`, false, false, false},
		{"unknown option member", `{"options":{"methd":"tree"}}`, false, false, false},
		{"unknown item member", `{"items":[{"p":[2,1],"extra":1}]}`, false, false, false},
		{"unknown batch option member", `{"items":[],"options":{"x":null}}`, false, false, false},

		// Repeated members: the one deliberate difference.
		{"duplicate id", `{"id":"a","id":"b"}`, false, false, true},
		{"duplicate folded name", `{"p":[1],"P":[2]}`, false, false, true},
		{"duplicate option member", `{"options":{"verify":true,"verify":false}}`, false, false, true},
		{"duplicate item member", `{"items":[{"id":"a","id":"b"}]}`, false, false, true},
		{"duplicate graph member", `{"graph":{"n":2,"n":3}}`, false, false, true},

		// The JSON path reads the first value only, as Decoder.Decode does.
		{"trailing garbage", `{"tenant":"t"} trailing {`, true, true, false},
		{"trailing garbage after null", `nullx`, true, true, false},
		{"truncated", `{"p":[2,1]`, false, false, false},
		{"empty body", ``, false, false, false},
		{"whitespace body", " \n\t", false, false, false},
	}
	for _, tc := range cases {
		solveOK, batchOK, dup := checkAgainstOracle(t, []byte(tc.body))
		if solveOK != tc.solve || batchOK != tc.batch || dup != tc.duplicateSeen {
			t.Errorf("%s: accepted as solve %v, batch %v, duplicate seen %v; want %v, %v, %v",
				tc.name, solveOK, batchOK, dup, tc.solve, tc.batch, tc.duplicateSeen)
		}
	}
}

// TestRequestDecodeDepthBound pins nesting at encoding/json's bound,
// counted from the top of the body: 10000 levels decode, 10001 do not,
// for the oracle and the one-pass decoders alike.
func TestRequestDecodeDepthBound(t *testing.T) {
	for _, depth := range []int{10000, 10001} {
		for _, body := range []string{
			`{"graph":{"n":1,"x":` + nested(depth-2) + `}}`,
			`{"items":[{"graph":{"n":1,"x":` + nested(depth-4) + `}}]}`,
		} {
			solveOK, batchOK, _ := checkAgainstOracle(t, []byte(body))
			if ok := solveOK || batchOK; ok != (depth == 10000) {
				t.Errorf("%.30s… at depth %d: accepted %v", body, depth, ok)
			}
		}
	}
}

// TestDeepNestingIs400 sends a body nested one level past the bound to
// every endpoint that decodes JSON: each answers 400, where an unbounded
// recursive scan could exhaust the goroutine stack and kill the process.
func TestDeepNestingIs400(t *testing.T) {
	ts := newTestServer(t, nil)
	for _, tc := range []struct{ path, body string }{
		{"/v1/graphs", `{"n":1,"x":` + nested(10000) + `}`},
		{"/v1/solve", `{"graph":{"n":1,"x":` + nested(9999) + `},"p":[2,1]}`},
		{"/v1/batch", `{"items":[{"graph":{"n":1,"x":` + nested(9997) + `},"p":[2,1]}]}`},
	} {
		resp, data := postRaw(t, ts.URL+tc.path, "application/json", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s, 10001 levels: status %d, want 400 (%.200s)", tc.path, resp.StatusCode, data)
		}
	}
	// One level less is within the bound.
	resp, data := postRaw(t, ts.URL+"/v1/graphs", "application/json", []byte(`{"n":1,"x":`+nested(9999)+`}`))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/graphs, 10000 levels: status %d, want 200 (%.200s)", resp.StatusCode, data)
	}
}

// TestBinaryEnvelopeTrailingData pins the binary transport's envelope
// rule: the JSON after the frame must be the last thing in the body.
func TestBinaryEnvelopeTrailingData(t *testing.T) {
	frame := graph.AppendBinary(nil, graph.Cycle(5))
	for _, tc := range []struct {
		envelope string
		ok       bool
	}{
		{``, true},
		{" \n", true},
		{`{"p":[2,1]}`, true},
		{"{\"p\":[2,1]} \r\n", true},
		{`null`, true},
		{`{"p":[2,1]} x`, false},
		{`{"p":[2,1]}{}`, false},
		{`{"p":[2,1]}}`, false},
		{`{"p":[2,1],"graphRef":"` + strings.Repeat("a", 32) + `"}`, false},
		{`{"p":[2,1],"bogus":1}`, false},
	} {
		var req SolveRequest
		err := DecodeSolveBody(graph.BinaryContentType, append(append([]byte{}, frame...), tc.envelope...), &req)
		if (err == nil) != tc.ok {
			t.Errorf("envelope %q: err %v, want accepted=%v", tc.envelope, err, tc.ok)
		}
		if err == nil && !sameGraph(req.Graph, graph.Cycle(5)) {
			t.Errorf("envelope %q: graph %v, want the frame's C5", tc.envelope, req.Graph)
		}
	}
}

// TestDecodedRequestOwnsItsData overwrites the body after decoding, as
// the pooled body buffer is overwritten by the next request, and checks
// that nothing decoded changes: every string is a copy and every graph
// is built from pairs.
func TestDecodedRequestOwnsItsData(t *testing.T) {
	g := graph.RandomSmallDiameter(rng.New(3), 20, 3, 0.2)
	ref := intern.Ref(g)
	solve, _ := json.Marshal(SolveRequest{ID: "plain-id", Graph: g, P: labeling.Vector{2, 2, 1}, Tenant: "tenant-a",
		Options: &WireOptions{Method: "reduction", Algorithm: "portfolio", Engines: []string{"nn", "2opt"}}})
	escaped := []byte(`{"id":"escé\n","graphRef":"` + ref + `","p":[1,2],"tenant":"tA"}`)
	dimacs := []byte(`{"graph":"p edge 3 2\ne 1 2\ne 2 3","p":[2,1],"options":{"engines":["chained"]}}`)
	frame := append(graph.AppendBinary(nil, g), `{"id":"bin","p":[2,1],"options":{"method":"tree"}}`...)
	batch, _ := json.Marshal(BatchRequest{Tenant: "batch-tenant", Options: &WireOptions{Algorithm: "nn"},
		Items: []SolveRequest{{ID: "i0", Graph: g, P: labeling.Vector{2, 1}}, {ID: "i1", GraphRef: ref, P: labeling.Vector{1, 1}}}})

	scribble := func(b []byte) {
		for i := range b {
			b[i] = 'x'
		}
	}
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{
		{"application/json", solve},
		{"application/json", escaped},
		{"application/json", dimacs},
		{graph.BinaryContentType, frame},
	} {
		var want, got SolveRequest
		if err := DecodeSolveBody(tc.contentType, tc.body, &want); err != nil {
			t.Fatal(err)
		}
		buf := append([]byte{}, tc.body...)
		if err := DecodeSolveBody(tc.contentType, buf, &got); err != nil {
			t.Fatal(err)
		}
		scribble(buf)
		if !sameSolve(got, want) {
			t.Errorf("%s: request changed when its body was overwritten: %+v, want %+v", tc.body, got, want)
		}
	}
	var want, got BatchRequest
	if err := DecodeBatchRequest(batch, &want); err != nil {
		t.Fatal(err)
	}
	buf := append([]byte{}, batch...)
	if err := DecodeBatchRequest(buf, &got); err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	if !sameBatch(got, want) {
		t.Errorf("batch changed when its body was overwritten: %+v, want %+v", got, want)
	}
}

func FuzzRequestDecode(f *testing.F) {
	g := `{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`
	for _, seed := range []string{
		`{"id":"a","graph":` + g + `,"p":[2,2,1],"options":{"method":"reduction","algorithm":"portfolio","engines":["nn","2opt"],"verify":false,"noCache":true,"deadlineMs":250},"tenant":"t","explain":true}`,
		`{"items":[{"id":"a","graph":` + g + `,"p":[2,1]},{"graphRef":"ab","p":[1,1]},null],"options":{"verify":true},"workers":3,"tenant":"t"}`,
		`{"graphRef":"0123456789abcdef0123456789abcdef","p":[2,2,1]}`,
		`{"graph":"p edge 4 3\ne 1 2\ne 2 3\ne 3 4","p":[1,2]}`,
		`{"ID":"x","P":[1],"Options":{"Verify":null,"engineſ":[]},"worKers":1}`,
		`{"id":"é\ud800😀\\","p":[null,-0,9223372036854775807]}`,
		`{"p":[1.0],"options":{"deadlineMs":1e3}}`,
		`{"items":[{"p":[2,1],"extra":1}]}`,
		`{"options":{"methd":"x"}}`,
		`{"id":"a","id":"b"}`,
		`{"p":[2,1]} trailing`,
		`null`,
		`{"graph":{"n":3,"edges":[[0, 1],[ 1,2]],"x":[[[]]]},"p":[2,1]}`,
		"{\"id\":\"\xff\xed\xa0\x80\"}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body)
	})
}

// BenchmarkDecodeRequest compares the one-pass decoders with the
// encoding/json path they replaced (a strict Decoder into the request,
// the graph through Graph.UnmarshalJSON) on request shapes the lplperf
// workloads send: cold-solve full bodies (n = 32, 64, 96, p = (2,2,1)),
// a graphRef envelope, and a 4-item batch of diameter-2 graphs.
func BenchmarkDecodeRequest(b *testing.B) {
	r := rng.New(2023)
	p := labeling.Vector{2, 2, 1}
	type body struct {
		name  string
		data  []byte
		batch bool
	}
	var bodies []body
	for _, n := range []int{32, 64, 96} {
		data, _ := json.Marshal(SolveRequest{Graph: graph.RandomSmallDiameter(r, n, 3, 0.1), P: p})
		bodies = append(bodies, body{name: fmt.Sprintf("solve-n%d", n), data: data})
	}
	ref := intern.Ref(graph.Cycle(8))
	data, _ := json.Marshal(SolveRequest{GraphRef: ref, P: p})
	bodies = append(bodies, body{name: "graphref", data: data})
	var br BatchRequest
	for i := 0; i < 4; i++ {
		br.Items = append(br.Items, SolveRequest{ID: fmt.Sprint(i), Graph: graph.RandomDiameter2(r, 10+i, 0.5), P: labeling.Vector{2, 1}})
	}
	data, _ = json.Marshal(br)
	bodies = append(bodies, body{name: "batch4", data: data, batch: true})

	for _, bd := range bodies {
		b.Run(bd.name+"/onepass", func(b *testing.B) {
			b.SetBytes(int64(len(bd.data)))
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if bd.batch {
					var req BatchRequest
					err = DecodeBatchRequest(bd.data, &req)
				} else {
					var req SolveRequest
					err = DecodeSolveBody("application/json", bd.data, &req)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bd.name+"/encoding-json", func(b *testing.B) {
			b.SetBytes(int64(len(bd.data)))
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if bd.batch {
					var req BatchRequest
					err = oracleDecode(bd.data, &req)
				} else {
					var req SolveRequest
					err = oracleDecode(bd.data, &req)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
