package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The text format is a minimal DIMACS-like edge list:
//
//	c optional comment lines
//	p edge <n> <m>
//	e <u> <v>          (1-based vertex indices, m lines)
//
// Plain "<n> <m>\n<u> <v>..." 0-based edge lists are also accepted by Read
// when the first non-comment line has two integers and no "p" header.

// Write serializes g in DIMACS edge format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	g.Normalize()
	if _, err := fmt.Fprintf(bw, "p edge %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "e %d %d\n", e[0]+1, e[1]+1); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a graph in DIMACS edge format (1-based) or a bare
// "n m" + 0-based edge-list format, on the streaming decoder: edges go
// into a pooled flat pair buffer and the graph is assembled directly in
// CSR shape. Malformed input — self-loops, out-of-range endpoints, bad
// vertex counts, short edge lines — returns typed errors (ErrSelfLoop,
// ErrEdgeRange, ErrVertexCount) with line positions; the pre-streaming
// implementation panicked on several of these.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeDIMACS(string(data))
}

// MediaType returns a Content-Type header's media type, lowercased and
// stripped of parameters ("application/json; charset=utf-8" →
// "application/json").
func MediaType(contentType string) string {
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	return strings.ToLower(strings.TrimSpace(contentType))
}

// DecodeBody decodes a bare graph body by its Content-Type header: the
// binary frame (BinaryContentType), a DIMACS document (text/*), or the
// JSON wire form (anything else). Like DecodeBinary it also returns the
// bytes after a binary frame; the other forms consume the whole body.
// Errors name the form that failed to parse.
func DecodeBody(contentType string, body []byte) (*Graph, []byte, error) {
	switch ct := MediaType(contentType); {
	case ct == BinaryContentType:
		g, rest, err := DecodeBinary(body)
		if err != nil {
			return nil, nil, fmt.Errorf("bad graph frame: %w", err)
		}
		return g, rest, nil
	case strings.HasPrefix(ct, "text/"):
		g, err := decodeDIMACS(string(body))
		if err != nil {
			return nil, nil, fmt.Errorf("bad graph document: %w", err)
		}
		return g, nil, nil
	}
	g, err := decodeJSONGraph(body)
	if err != nil {
		return nil, nil, fmt.Errorf("bad graph body: %w", err)
	}
	return g, nil, nil
}

// MustParse parses a graph from a string, panicking on error. Test helper.
func MustParse(s string) *Graph {
	g, err := Read(strings.NewReader(s))
	if err != nil {
		panic(err)
	}
	return g
}
