package graph

import (
	"encoding/json"
	"fmt"
	"strings"
)

// JSON wire form of a graph, used by the lplserve HTTP API and anyone
// embedding a *Graph in a marshaled struct. Two encodings are accepted on
// the way in:
//
//	{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}   object form, 0-based
//	"p edge 4 4\ne 1 2\n..."                        string form: a whole
//	                                                DIMACS / edge-list
//	                                                document (see Read)
//
// Marshaling always produces the object form with edges in canonical
// (u < v, lexicographic) order, so equal graphs encode to equal bytes.
//
// Decoding runs on the streaming decoder (decode.go): the object form is
// scanned byte-by-byte into pooled flat edge buffers and assembled
// directly in CSR shape, with no intermediate [][]int and no per-edge
// allocations. The same scanner reads graphs embedded in the service's
// request envelopes (JSONReader.Graph), so encoding/json never scans a
// request body's graph. decodeJSONReference below is the retained
// encoding/json implementation; the two are pinned bit-identical (CSR
// arrays and fingerprint) on every accepted body by the
// decoder-equivalence tests and FuzzDecodeEquivalence.

// jsonGraph is the object wire form of the reference decoder. Edges
// decode as [][]int, not [][2]int: encoding/json zero-fills or truncates
// fixed-size arrays, so the [2]int form would silently rewrite malformed
// tuples instead of rejecting them.
type jsonGraph struct {
	N     int     `json:"n"`
	Edges [][]int `json:"edges"`
}

// MarshalJSON encodes g in the object wire form. The edge list is the
// canonical one (normalized, u < v, sorted), so the encoding is
// deterministic for a given graph.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N     int      `json:"n"`
		Edges [][2]int `json:"edges"`
	}{N: g.N(), Edges: g.Edges()})
}

// UnmarshalJSON decodes either wire form into g, replacing its contents.
// Object-form edges are 0-based and validated against n (self-loops are
// ErrSelfLoop, bad endpoints ErrEdgeRange, absurd vertex counts
// ErrVertexCount — all errors.Is-testable); the string form accepts both
// DIMACS and bare edge-list documents under the same rules.
func (g *Graph) UnmarshalJSON(data []byte) error {
	h, err := decodeJSONGraph(data)
	if err != nil {
		return err
	}
	g.adoptBuilt(h)
	return nil
}

// decodeJSONReference is the encoding/json implementation the streaming
// decoder replaced, retained as the equivalence oracle: every body it
// accepts must produce a bit-identical graph (CSR arrays and
// fingerprint) from decodeJSONGraph.
func decodeJSONReference(data []byte) (*Graph, error) {
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, `"`) {
		var doc string
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, err
		}
		return Read(strings.NewReader(doc))
	}
	var wire jsonGraph
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	if err := checkVertexCount(int64(wire.N)); err != nil {
		return nil, err
	}
	h := New(wire.N)
	for i, e := range wire.Edges {
		if len(e) != 2 {
			return nil, fmt.Errorf("graph: edge %d has %d endpoints, want exactly 2", i, len(e))
		}
		if err := validateEdge(i, int64(e[0]), int64(e[1]), wire.N); err != nil {
			return nil, err
		}
		h.AddEdge(e[0], e[1])
	}
	h.Normalize()
	return h, nil
}

// adoptBuilt moves a freshly decoded graph's contents into g, carrying
// over the already-built derived views (the decoders produce graphs born
// normalized with their CSR view set). h must not be used afterwards.
func (g *Graph) adoptBuilt(h *Graph) {
	g.adj = h.adj
	g.m = h.m
	g.normalized.Store(h.normalized.Load())
	g.csrView.Store(h.csrView.Load())
	g.fp.Store(h.fp.Load())
}
