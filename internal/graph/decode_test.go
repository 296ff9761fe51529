package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lpltsp/internal/rng"
)

// ---------------------------------------------------------------------------
// streaming / reference equivalence

// csrEqual asserts two graphs are bit-identical at the CSR layer (the
// representation every hot path traverses) and on the 128-bit
// fingerprint (the cache and intern identity).
func csrEqual(t *testing.T, got, want *Graph, ctx string) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: got n=%d m=%d, want n=%d m=%d", ctx, got.N(), got.M(), want.N(), want.M())
	}
	gc, wc := got.csrData(), want.csrData()
	if !slicesEqualInt32(gc.offsets, wc.offsets) {
		t.Fatalf("%s: CSR offsets differ:\n got %v\nwant %v", ctx, gc.offsets, wc.offsets)
	}
	if !slicesEqualInt32(gc.nbrs, wc.nbrs) {
		t.Fatalf("%s: CSR neighbors differ:\n got %v\nwant %v", ctx, gc.nbrs, wc.nbrs)
	}
	g1, g2 := got.Fingerprint()
	w1, w2 := want.Fingerprint()
	if g1 != w1 || g2 != w2 {
		t.Fatalf("%s: fingerprints differ: %x.%x vs %x.%x", ctx, g1, g2, w1, w2)
	}
}

func slicesEqualInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStreamingDecoderMatchesReference(t *testing.T) {
	bodies := []string{
		`{"n":0,"edges":[]}`,
		`{"n":1,"edges":[]}`,
		`{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`,
		`{"n":4,"edges":[[3,0],[2,3],[1,2],[0,1]]}`, // non-canonical order
		`{"n":3,"edges":[[0,1],[1,0],[0,1],[1,2]]}`, // duplicates collapse
		`{"edges":[[0,1]],"n":2}`,                   // member order free
		`{"n":5,"edges":[[4,0],[0,2]],"note":"x"}`,  // unknown member skipped
		`{"n":2,"edges":[[0,1]],"extra":{"a":[1,2.5,"s",null,true]}}`,
		`  {  "n" : 3 , "edges" : [ [ 0 , 2 ] ] }  `, // whitespace everywhere
		`{"N":3,"EDGES":[[0,1]]}`,                    // case-folded keys
		`{"n":2,"edges":[[null,1]]}`,                 // null endpoint = 0
		`{"n":3,"edges":null}`,                       // null member = no edges
		`{}`,
		`null`,
		`{"unrelated":7}`,
		`"p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1"`, // DIMACS string form
		`"4 4\n0 1\n1 2\n2 3\n3 0"`,                // bare edge-list form
		`"c comment\np edge 3 2\ne 1 2\ne 2 3"`,
		`{"n":-0,"edges":[]}`, // -0 is a valid JSON integer zero
	}
	for _, body := range bodies {
		ref, refErr := decodeJSONReference([]byte(body))
		got, gotErr := decodeJSONGraph([]byte(body))
		if refErr != nil {
			t.Fatalf("reference rejected %s: %v", body, refErr)
		}
		if gotErr != nil {
			t.Fatalf("streaming rejected %s: %v", body, gotErr)
		}
		csrEqual(t, got, ref, body)
	}
}

func TestStreamingDecoderErrorsMatchReference(t *testing.T) {
	bodies := []string{
		`{"n":-1,"edges":[]}`,       // negative n
		`{"n":3,"edges":[[0,3]]}`,   // endpoint out of range
		`{"n":3,"edges":[[1,1]]}`,   // self-loop
		`{"n":3,"edges":[[-1,0]]}`,  // negative endpoint
		`"p edge x y"`,              // malformed DIMACS doc
		`[1,2,3]`,                   // wrong JSON shape
		`{"n":3,"edges":[[2]]}`,     // one-endpoint edge
		`{"n":3,"edges":[[0,1,2]]}`, // three-endpoint edge
		`{"n":3,"edges":[[]]}`,      // empty edge
		`{"n":3,"edges":[null]}`,    // null edge = zero endpoints
		`{"n":1.5,"edges":[]}`,      // non-integer n
		`{"n":1e2,"edges":[]}`,      // exponent n
		`{"n":01,"edges":[]}`,       // leading zero
		`{"n":2,"edges":[[0,1]]} x`, // trailing garbage
		`{"n":2,"edges":[[0,"1"]]}`, // string endpoint
		`{"n":2,"edges":[[0,true]]}`,
		`{"n":99999999999999999999,"edges":[]}`, // int64 overflow
		`{"n":4194305,"edges":[]}`,              // beyond MaxWireVertices
		`{"n":2,`,                               // truncated object
		`{"n":2,"edges":[[0,1]`,                 // truncated array
		`true`,
		`42`,
		``,
	}
	for _, body := range bodies {
		_, refErr := decodeJSONReference([]byte(body))
		_, gotErr := decodeJSONGraph([]byte(body))
		if refErr == nil {
			t.Fatalf("reference accepted %s", body)
		}
		if gotErr == nil {
			t.Fatalf("streaming accepted %s (reference rejects: %v)", body, refErr)
		}
	}
}

func TestStreamingDecoderTypedErrors(t *testing.T) {
	cases := []struct {
		body string
		want error
	}{
		{`{"n":3,"edges":[[1,1]]}`, ErrSelfLoop},
		{`{"n":3,"edges":[[0,3]]}`, ErrEdgeRange},
		{`{"n":3,"edges":[[-1,0]]}`, ErrEdgeRange},
		{`{"n":-1,"edges":[]}`, ErrVertexCount},
		{`{"n":4194305,"edges":[]}`, ErrVertexCount},
		{`"p edge 3 1\ne 2 2"`, ErrSelfLoop},
		{`"p edge 3 1\ne 1 9"`, ErrEdgeRange},
		{`"p edge -2 0"`, ErrVertexCount},
		{`"3 1\n1 1"`, ErrSelfLoop},
		{`{"n":2,"edges":[[0,1]],"n":2}`, errDuplicateKey},
		{`{"edges":[],"edges":[]}`, errDuplicateKey},
	}
	for _, c := range cases {
		var g Graph
		err := g.UnmarshalJSON([]byte(c.body))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", c.body, err, c.want)
		}
	}
}

// TestDIMACSValidationMatchesJSON pins the satellite requirement: the
// DIMACS path applies the same loop/range/dup rules as the JSON object
// form — self-loops and bad endpoints are typed errors (the old reader
// panicked), duplicates collapse identically.
func TestDIMACSValidationMatchesJSON(t *testing.T) {
	jg, err := decodeJSONGraph([]byte(`{"n":3,"edges":[[0,1],[1,0],[1,2],[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Read(strings.NewReader("p edge 3 4\ne 1 2\ne 2 1\ne 2 3\ne 2 3"))
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, dg, jg, "dup collapse")

	bad := []struct {
		doc  string
		want error
	}{
		{"p edge 3 1\ne 1 1", ErrSelfLoop},
		{"p edge 3 1\ne 0 1", ErrEdgeRange}, // 1-based: e 0 → vertex -1
		{"p edge 3 1\ne 1 4", ErrEdgeRange},
		{"p edge -1 0", ErrVertexCount},
	}
	for _, c := range bad {
		if _, err := Read(strings.NewReader(c.doc)); !errors.Is(err, c.want) {
			t.Errorf("%q: got %v, want errors.Is(%v)", c.doc, err, c.want)
		}
	}
	// Short lines error instead of panicking.
	for _, doc := range []string{"p edge 2 1\ne", "p edge 2 1\ne 1", "p edge", "7"} {
		if _, err := Read(strings.NewReader(doc)); err == nil {
			t.Errorf("%q: expected error", doc)
		}
	}
}

// TestDecodedGraphIsMutable guards the CSR-direct construction: the
// adjacency headers alias one flat array, so a post-decode AddEdge must
// reallocate rather than corrupt a sibling's segment.
func TestDecodedGraphIsMutable(t *testing.T) {
	var g Graph
	if err := g.UnmarshalJSON([]byte(`{"n":4,"edges":[[0,1],[2,3]]}`)); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(0, 2)
	g.Normalize()
	if g.M() != 3 || !g.HasEdge(2, 3) || !g.HasEdge(0, 2) || !g.HasEdge(0, 1) {
		t.Fatalf("mutation after decode corrupted the graph: %v", g.Edges())
	}
}

func FuzzDecodeEquivalence(f *testing.F) {
	f.Add([]byte(`{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`))
	f.Add([]byte(`{"edges":[[0,1]],"n":2}`))
	f.Add([]byte(`{"n":3,"edges":[[0,1],[1,0],[1,2]],"x":1.5}`))
	f.Add([]byte(`{"n":2,"edges":[[null,1]]}`))
	f.Add([]byte(`"p edge 4 3\ne 1 2\ne 2 3\ne 3 4"`))
	f.Add([]byte(`"4 4\n0 1\n1 2\n2 3\n3 0"`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"N":3,"EDGES":[[0,2]]}`))
	// Integers at the in-place parser's edges: 17 to 20 digits around its
	// 18-digit cut-over to strconv, the int64 limits and one past them,
	// negative zero, and leading zeros.
	f.Add([]byte(`{"n":12345678901234567,"edges":[[0,99999999999999999]]}`))
	f.Add([]byte(`{"n":3,"edges":[[0,999999999999999999],[1,-999999999999999999]]}`))
	f.Add([]byte(`{"n":1000000000000000000,"edges":[[0,-1000000000000000000]]}`))
	f.Add([]byte(`{"n":2,"edges":[[0,12345678901234567890]]}`))
	f.Add([]byte(`{"n":9223372036854775807,"edges":[[-9223372036854775808,9223372036854775807]]}`))
	f.Add([]byte(`{"n":2,"edges":[[9223372036854775808,1]]}`))
	f.Add([]byte(`{"n":-9223372036854775809}`))
	f.Add([]byte(`{"n":-0,"edges":[[-0,1]]}`))
	f.Add([]byte(`{"n":2,"edges":[[-0,1]]}`))
	f.Add([]byte(`{"n":02,"edges":[[0,1]]}`))
	f.Add([]byte(`{"n":3,"edges":[[00,1],[-01,2]]}`))
	f.Add([]byte(`{"n":000000000000000000003}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		ref, refErr := decodeJSONReference(body)
		got, gotErr := decodeJSONGraph(body)
		if errors.Is(gotErr, errDuplicateKey) {
			// The streaming decoder deliberately tightens duplicate-member
			// bodies (the reference last-wins); outside the contract.
			return
		}
		if refErr == nil && gotErr != nil {
			t.Fatalf("streaming rejected a reference-valid body %q: %v", body, gotErr)
		}
		if refErr != nil && gotErr == nil {
			t.Fatalf("streaming accepted %q which the reference rejects: %v", body, refErr)
		}
		if refErr != nil {
			return
		}
		csrEqual(t, got, ref, fmt.Sprintf("%q", body))
		// Canonical re-encode must round-trip through both decoders.
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeJSONGraph(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding %s: %v", enc, err)
		}
		csrEqual(t, again, ref, "canonical round trip")
	})
}

// ---------------------------------------------------------------------------
// binary wire form

func TestBinaryRoundTrip(t *testing.T) {
	r := rng.New(7)
	graphs := []*Graph{
		New(0),
		New(1),
		New(5),
		MustParse("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1"),
		Path(6),
		Cycle(9),
		Complete(8),
		Star(12),
		RandomSmallDiameter(r, 64, 3, 0.1),
		RandomSmallDiameter(r, 200, 3, 0.05),
	}
	for _, g := range graphs {
		frame := AppendBinary(nil, g)
		dec, rest, err := DecodeBinary(frame)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d unexpected trailing bytes", g, len(rest))
		}
		csrEqual(t, dec, g, g.String())
		// The frame is self-delimiting: a trailing envelope comes back out.
		framed := append(AppendBinary(nil, g), []byte(`{"p":[2,1]}`)...)
		dec2, rest2, err := DecodeBinary(framed)
		if err != nil {
			t.Fatal(err)
		}
		if string(rest2) != `{"p":[2,1]}` {
			t.Fatalf("remainder = %q", rest2)
		}
		csrEqual(t, dec2, g, "framed")
	}
}

func TestBinaryMatchesJSONDecode(t *testing.T) {
	// Binary and JSON ingestion of the same graph are bit-identical.
	r := rng.New(11)
	for trial := 0; trial < 8; trial++ {
		g := RandomSmallDiameter(r, 40+trial*13, 3, 0.1)
		jb, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var fromJSON Graph
		if err := fromJSON.UnmarshalJSON(jb); err != nil {
			t.Fatal(err)
		}
		fromBin, _, err := DecodeBinary(AppendBinary(nil, g))
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, fromBin, &fromJSON, "binary vs json")
	}
}

func TestBinaryEncodeBinaryWriter(t *testing.T) {
	g := Cycle(5)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	dec, _, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, dec, g, "writer round trip")
}

func TestBinaryDecodeErrors(t *testing.T) {
	good := AppendBinary(nil, Cycle(4))
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBinaryFormat},
		{"bad magic", []byte("NOPE"), ErrBinaryFormat},
		{"truncated header", []byte("LPG1"), ErrBinaryFormat},
		{"truncated frame", good[:len(good)-1], ErrBinaryFormat},
		{"length overrun", append([]byte("LPG1"), 0xFF, 0xFF, 0xFF, 0x7F), ErrBinaryFormat},
	}
	for _, c := range cases {
		if _, _, err := DecodeBinary(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", c.name, err, c.want)
		}
	}
	// Hostile counts are rejected before any allocation is sized.
	hostile := []byte("LPG1")
	payload := []byte{}
	payload = appendUvarintT(payload, MaxWireVertices+1)
	payload = appendUvarintT(payload, 0)
	hostile = appendUvarintT(hostile, uint64(len(payload)))
	hostile = append(hostile, payload...)
	if _, _, err := DecodeBinary(hostile); !errors.Is(err, ErrVertexCount) {
		t.Errorf("hostile n: got %v, want ErrVertexCount", err)
	}
	hostile = []byte("LPG1")
	payload = payload[:0]
	payload = appendUvarintT(payload, 4)
	payload = appendUvarintT(payload, 1<<40) // absurd m, tiny frame
	hostile = appendUvarintT(hostile, uint64(len(payload)))
	hostile = append(hostile, payload...)
	if _, _, err := DecodeBinary(hostile); !errors.Is(err, ErrBinaryFormat) {
		t.Errorf("hostile m: got %v, want ErrBinaryFormat", err)
	}
}

func appendUvarintT(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// ---------------------------------------------------------------------------
// ingestion benchmarks (BENCH_PR6 harness)

// benchBody builds the n-vertex random-instance JSON body the serve
// benchmarks use, so ingest numbers line up with the end-to-end ones.
func benchGraph(n int) *Graph {
	return RandomSmallDiameter(rng.New(2023), n, 3, 0.1)
}

func BenchmarkIngestJSONStreaming(b *testing.B) {
	g := benchGraph(64)
	body, _ := json.Marshal(g)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeJSONGraph(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestJSONReference(b *testing.B) {
	g := benchGraph(64)
	body, _ := json.Marshal(g)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeJSONReference(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestBinary(b *testing.B) {
	g := benchGraph(64)
	frame := AppendBinary(nil, g)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBinary(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestDIMACS(b *testing.B) {
	g := benchGraph(64)
	var sb strings.Builder
	if err := Write(&sb, g); err != nil {
		b.Fatal(err)
	}
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeDIMACS(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// DecodeBody: one graph-body parser for every transport

func TestDecodeBodyTransports(t *testing.T) {
	g := RandomSmallDiameter(rng.New(5), 20, 3, 0.3)
	jsonBody, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var dimacs bytes.Buffer
	if err := Write(&dimacs, g); err != nil {
		t.Fatal(err)
	}
	frame := AppendBinary(nil, g)
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{
		{"", jsonBody},
		{"application/json; charset=utf-8", jsonBody},
		// Only the exact binary media type selects the frame decoder.
		{BinaryContentType + "s", jsonBody},
		{"text/plain", dimacs.Bytes()},
		{" Text/Plain ; charset=us-ascii", dimacs.Bytes()},
		{BinaryContentType, frame},
		{"Application/X-LPL-Graph; v=1", frame},
	} {
		got, rest, err := DecodeBody(tc.contentType, tc.body)
		if err != nil {
			t.Fatalf("DecodeBody(%q): %v", tc.contentType, err)
		}
		if len(rest) != 0 {
			t.Errorf("DecodeBody(%q): %d bytes left over", tc.contentType, len(rest))
		}
		csrEqual(t, got, g, fmt.Sprintf("DecodeBody(%q)", tc.contentType))
	}

	// A binary frame hands back what follows it; the other forms fail
	// with an error naming the form.
	if _, rest, err := DecodeBody(BinaryContentType, append(append([]byte{}, frame...), `{"p":[2,1]}`...)); err != nil || string(rest) != `{"p":[2,1]}` {
		t.Errorf("frame + envelope: rest %q, err %v", rest, err)
	}
	for ct, prefix := range map[string]string{
		BinaryContentType: "bad graph frame: ",
		"text/plain":      "bad graph document: ",
		"":                "bad graph body: ",
	} {
		if _, _, err := DecodeBody(ct, []byte("p edge 2 1\ne 1 1\n")); err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("DecodeBody(%q) on a bad body: err %v, want prefix %q", ct, err, prefix)
		}
	}
}
