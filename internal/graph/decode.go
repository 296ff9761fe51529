package graph

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Streaming graph ingestion: the decoders in this file parse the JSON
// object form {"n":…,"edges":[[u,v],…]} and DIMACS documents straight
// into pooled flat edge buffers and assemble the graph in its final
// CSR shape (one offsets array, one flat neighbor array, adjacency
// headers sliced into it) — no intermediate [][]int, no per-edge
// allocations, no post-hoc Normalize sort of per-vertex slices. A cold
// decode performs four result allocations (Graph, offsets, neighbors,
// adjacency headers) regardless of edge count; all scratch comes from
// sync.Pools.
//
// Graph.UnmarshalJSON routes through decodeJSONGraph, so every consumer
// of the JSON codec (the lplserve request path above all) gets the fast
// path. The previous encoding/json-based implementation is retained as
// decodeJSONReference and pinned bit-identical (CSR arrays and
// fingerprint) to the streaming decoder by decoder-equivalence tests
// and FuzzDecodeEquivalence.
//
// Validation is shared and typed: self-loops (ErrSelfLoop), endpoints
// outside [0,n) (ErrEdgeRange), and negative or absurd vertex counts
// (ErrVertexCount) are rejected identically by the JSON object form,
// the DIMACS form, and the binary wire form (binary.go); duplicate
// edges collapse in all three. The service maps these to 400.

// Typed ingestion errors, shared by every decode path (errors.Is).
var (
	// ErrSelfLoop rejects an edge {u,u}.
	ErrSelfLoop = errors.New("self-loop edge")
	// ErrEdgeRange rejects an edge endpoint outside [0,n).
	ErrEdgeRange = errors.New("edge endpoint out of range")
	// ErrVertexCount rejects a negative vertex count or one beyond
	// MaxWireVertices.
	ErrVertexCount = errors.New("invalid vertex count")
	// errDuplicateKey rejects a JSON graph object that repeats "n" or
	// "edges"; RFC 8259 leaves duplicate-member semantics undefined, and
	// the streaming decoder refuses to guess.
	errDuplicateKey = errors.New("duplicate key in graph object")
)

// MaxWireVertices bounds the vertex count any decoder accepts (4M): a
// wire document naming more vertices than that is rejected with
// ErrVertexCount before any allocation is sized from it, so a tiny
// hostile body cannot demand a gigabyte adjacency table.
const MaxWireVertices = 4 << 20

// checkVertexCount gates every decoder's n.
func checkVertexCount(n int64) error {
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d: %w", n, ErrVertexCount)
	}
	if n > MaxWireVertices {
		return fmt.Errorf("graph: vertex count %d exceeds wire limit %d: %w", n, MaxWireVertices, ErrVertexCount)
	}
	return nil
}

// validateEdge applies the shared edge rules for endpoint pair (u,v) at
// edge index i of an n-vertex graph.
func validateEdge(i int, u, v int64, n int) error {
	if u == v {
		return fmt.Errorf("graph: edge %d is a self-loop at %d: %w", i, u, ErrSelfLoop)
	}
	if u < 0 || v < 0 || u >= int64(n) || v >= int64(n) {
		return fmt.Errorf("graph: edge %d = {%d,%d} out of range [0,%d): %w", i, u, v, n, ErrEdgeRange)
	}
	return nil
}

// ---------------------------------------------------------------------------
// pooled scratch

// pairScratch is the flat endpoint buffer a decode appends (u,v) pairs
// to; countScratch is the degree-counting array of the CSR build. Both
// carry no data between uses.
type pairScratch struct{ pairs []int32 }

type countScratch struct{ counts []int32 }

var (
	pairPool  = sync.Pool{New: func() any { return new(pairScratch) }}
	countPool = sync.Pool{New: func() any { return new(countScratch) }}
)

func getPairScratch() *pairScratch {
	sc := pairPool.Get().(*pairScratch)
	sc.pairs = sc.pairs[:0]
	return sc
}

func putPairScratch(sc *pairScratch) {
	const maxRetained = 1 << 21 // don't pin pathological edge lists
	if cap(sc.pairs) > maxRetained {
		return
	}
	pairPool.Put(sc)
}

func getCountScratch(n int) *countScratch {
	sc := countPool.Get().(*countScratch)
	if cap(sc.counts) < n {
		sc.counts = make([]int32, n)
	}
	sc.counts = sc.counts[:n]
	clear(sc.counts)
	return sc
}

func putCountScratch(sc *countScratch) {
	const maxRetained = 1 << 21
	if cap(sc.counts) > maxRetained {
		return
	}
	countPool.Put(sc)
}

// ---------------------------------------------------------------------------
// CSR-direct construction

// buildFromPairs assembles a normalized n-vertex graph from flat
// endpoint pairs (pairs[2i], pairs[2i+1]) in one pass: validate, count
// degrees, scatter into the flat neighbor array, sort and deduplicate
// each segment in place. The result is born with its CSR view and
// normalized flag set — adjacency headers are subslices of the flat
// neighbor array (capacity-clamped, so a later AddEdge reallocates
// instead of corrupting a sibling's segment).
func buildFromPairs(n int, pairs []int32) (*Graph, error) {
	for i := 0; i+1 < len(pairs); i += 2 {
		if err := validateEdge(i/2, int64(pairs[i]), int64(pairs[i+1]), n); err != nil {
			return nil, err
		}
	}
	cs := getCountScratch(n)
	defer putCountScratch(cs)
	counts := cs.counts
	for _, x := range pairs {
		counts[x]++
	}
	off := make([]int32, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + counts[u]
	}
	nbrs := make([]int32, len(pairs))
	cur := counts // reuse as per-vertex scatter cursors
	copy(cur, off[:n])
	for i := 0; i+1 < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		nbrs[cur[u]] = v
		cur[u]++
		nbrs[cur[v]] = u
		cur[v]++
	}
	// Sort and dedupe each segment, compacting left; w never overtakes a
	// segment's read start, so the writes are safe in place.
	w := int32(0)
	for u := 0; u < n; u++ {
		seg := nbrs[off[u]:off[u+1]]
		slices.Sort(seg)
		start := w
		prev := int32(-1)
		for _, x := range seg {
			if x != prev {
				nbrs[w] = x
				w++
				prev = x
			}
		}
		off[u] = start
	}
	off[n] = w
	nbrs = nbrs[:w:w]
	adj := make([][]int32, n)
	for u := 0; u < n; u++ {
		adj[u] = nbrs[off[u]:off[u+1]:off[u+1]]
	}
	g := &Graph{adj: adj, m: int(w) / 2}
	g.normalized.Store(true)
	g.csrView.Store(&csr{offsets: off, nbrs: nbrs})
	return g, nil
}

// ---------------------------------------------------------------------------
// streaming JSON scanner

// decodeJSONGraph is the streaming decoder behind Graph.UnmarshalJSON.
// It accepts exactly what the encoding/json reference accepts — member
// order free, unknown members skipped, ASCII-fold key matching, null as
// the usual no-op — except that duplicate "n"/"edges" members are
// rejected (errDuplicateKey) instead of silently last-winning.
func decodeJSONGraph(data []byte) (*Graph, error) {
	s := jsonScan{data: data}
	s.skipWS()
	if s.pos >= len(s.data) {
		return nil, fmt.Errorf("graph: unexpected end of JSON input")
	}
	switch s.data[s.pos] {
	case '"':
		// String form: a whole DIMACS document. encoding/json handles the
		// string unescaping; the document itself takes the streaming path.
		var doc string
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, err
		}
		return decodeDIMACS(doc)
	case 'n':
		// A JSON null leaves the zero value, like encoding/json: an empty
		// graph.
		if err := s.literal("null"); err != nil {
			return nil, err
		}
		if err := s.end(); err != nil {
			return nil, err
		}
		return New(0), nil
	case '{':
		return s.object()
	}
	return nil, fmt.Errorf("graph: JSON graph must be an object, a DIMACS string, or null")
}

type jsonScan struct {
	data []byte
	pos  int
}

func (s *jsonScan) skipWS() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *jsonScan) errAt(format string, args ...any) error {
	return fmt.Errorf("graph: json offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// end requires only trailing whitespace to remain.
func (s *jsonScan) end() error {
	s.skipWS()
	if s.pos != len(s.data) {
		return s.errAt("trailing data after graph document")
	}
	return nil
}

func (s *jsonScan) literal(lit string) error {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return s.errAt("invalid literal")
	}
	s.pos += len(lit)
	return nil
}

// object parses the {"n","edges"} form into a graph.
func (s *jsonScan) object() (*Graph, error) {
	s.pos++ // '{'
	ps := getPairScratch()
	defer putPairScratch(ps)
	var (
		n        int64
		nSeen    bool
		edgeSeen bool
		keyBuf   [64]byte
	)
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == '}' {
		s.pos++
	} else {
		for {
			s.skipWS()
			key, err := s.key(keyBuf[:0])
			if err != nil {
				return nil, err
			}
			s.skipWS()
			if s.pos >= len(s.data) || s.data[s.pos] != ':' {
				return nil, s.errAt("expected ':' after object key")
			}
			s.pos++
			s.skipWS()
			switch {
			case foldEq(key, "n"):
				if nSeen {
					return nil, fmt.Errorf("graph: %w: %q", errDuplicateKey, key)
				}
				nSeen = true
				v, isNull, err := s.intOrNull()
				if err != nil {
					return nil, err
				}
				if !isNull {
					n = v
				}
			case foldEq(key, "edges"):
				if edgeSeen {
					return nil, fmt.Errorf("graph: %w: %q", errDuplicateKey, key)
				}
				edgeSeen = true
				if err := s.edges(ps); err != nil {
					return nil, err
				}
			default:
				if err := s.skipValue(); err != nil {
					return nil, err
				}
			}
			s.skipWS()
			if s.pos >= len(s.data) {
				return nil, s.errAt("unexpected end of object")
			}
			if s.data[s.pos] == ',' {
				s.pos++
				continue
			}
			if s.data[s.pos] == '}' {
				s.pos++
				break
			}
			return nil, s.errAt("expected ',' or '}' in object")
		}
	}
	if err := s.end(); err != nil {
		return nil, err
	}
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	return buildFromPairs(int(n), ps.pairs)
}

// edges parses the [[u,v],…] member into the flat pair buffer. A null
// member is the usual no-op; a null edge element is a zero-length edge
// (rejected later); a null endpoint is 0 — all matching what
// encoding/json produces decoding into a fresh [][]int.
func (s *jsonScan) edges(ps *pairScratch) error {
	if s.pos < len(s.data) && s.data[s.pos] == 'n' {
		return s.literal("null")
	}
	if s.pos >= len(s.data) || s.data[s.pos] != '[' {
		return s.errAt("edges must be an array")
	}
	s.pos++
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		return nil
	}
	edge := 0
	for {
		s.skipWS()
		if err := s.edgeElement(ps, edge); err != nil {
			return err
		}
		edge++
		s.skipWS()
		if s.pos >= len(s.data) {
			return s.errAt("unexpected end of edges array")
		}
		if s.data[s.pos] == ',' {
			s.pos++
			continue
		}
		if s.data[s.pos] == ']' {
			s.pos++
			return nil
		}
		return s.errAt("expected ',' or ']' in edges array")
	}
}

// edgeElement parses one [u,v] (or null) element, appending exactly one
// endpoint pair or failing with the same has-N-endpoints error the
// reference produces.
func (s *jsonScan) edgeElement(ps *pairScratch, edge int) error {
	if s.pos < len(s.data) && s.data[s.pos] == 'n' {
		if err := s.literal("null"); err != nil {
			return err
		}
		return fmt.Errorf("graph: edge %d has 0 endpoints, want exactly 2", edge)
	}
	if s.pos >= len(s.data) || s.data[s.pos] != '[' {
		return s.errAt("edge %d must be an array of two endpoints", edge)
	}
	s.pos++
	s.skipWS()
	var ends [2]int64
	count := 0
	if s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		return fmt.Errorf("graph: edge %d has 0 endpoints, want exactly 2", edge)
	}
	for {
		s.skipWS()
		v, isNull, err := s.intOrNull()
		if err != nil {
			return err
		}
		if count < 2 && !isNull {
			ends[count] = v
		}
		count++
		s.skipWS()
		if s.pos >= len(s.data) {
			return s.errAt("unexpected end of edge %d", edge)
		}
		if s.data[s.pos] == ',' {
			s.pos++
			continue
		}
		if s.data[s.pos] == ']' {
			s.pos++
			break
		}
		return s.errAt("expected ',' or ']' in edge %d", edge)
	}
	if count != 2 {
		return fmt.Errorf("graph: edge %d has %d endpoints, want exactly 2", edge, count)
	}
	// Endpoints beyond MaxWireVertices can never be in range for an
	// accepted n; reject now so the int32 pair buffer cannot truncate.
	for _, v := range ends {
		if v < -int64(MaxWireVertices) || v > int64(MaxWireVertices) {
			return fmt.Errorf("graph: edge %d = {%d,%d} out of range: %w", edge, ends[0], ends[1], ErrEdgeRange)
		}
	}
	ps.pairs = append(ps.pairs, int32(ends[0]), int32(ends[1]))
	return nil
}

// intOrNull parses a strict JSON integer (no fraction, no exponent,
// int64 range — what encoding/json accepts into an int) or null. The
// digits are accumulated in place; only a literal of more than 18 digits,
// which may leave the int64 range, goes through strconv.ParseInt.
func (s *jsonScan) intOrNull() (int64, bool, error) {
	if s.pos < len(s.data) && s.data[s.pos] == 'n' {
		return 0, true, s.literal("null")
	}
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	digits := 0
	var v int64
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		v = v*10 + int64(s.data[s.pos]-'0')
		s.pos++
		digits++
	}
	if digits == 0 {
		return 0, false, s.errAt("expected an integer")
	}
	// JSON forbids leading zeros ("01"), and a fraction or exponent is a
	// valid number but not an integer.
	lit := s.data[start:s.pos]
	neg := lit[0] == '-'
	body := lit
	if neg {
		body = lit[1:]
	}
	if len(body) > 1 && body[0] == '0' {
		return 0, false, s.errAt("invalid number literal %q", lit)
	}
	if s.pos < len(s.data) {
		switch s.data[s.pos] {
		case '.', 'e', 'E':
			return 0, false, s.errAt("number %q is not an integer", lit)
		}
	}
	if digits > 18 {
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return 0, false, s.errAt("integer %q out of range", lit)
		}
		return v, false, nil
	}
	if neg {
		v = -v
	}
	return v, false, nil
}

// key parses an object key, returning its unescaped bytes (into buf when
// they fit). Escape handling matches encoding/json: \uXXXX with
// surrogate pairs, lone surrogates replaced by U+FFFD.
func (s *jsonScan) key(buf []byte) ([]byte, error) {
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, s.errAt("expected object key")
	}
	s.pos++
	start := s.pos
	// Fast path: no escapes.
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c == '"' {
			key := s.data[start:s.pos]
			s.pos++
			return key, nil
		}
		if c == '\\' {
			break
		}
		if c < 0x20 {
			return nil, s.errAt("control character in string")
		}
		s.pos++
	}
	// Slow path: unescape from the beginning.
	s.pos = start
	out := buf
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return out, nil
		case c == '\\':
			s.pos++
			r, err := s.escape()
			if err != nil {
				return nil, err
			}
			out = utf8.AppendRune(out, r)
		case c < 0x20:
			return nil, s.errAt("control character in string")
		default:
			out = append(out, c)
			s.pos++
		}
	}
	return nil, s.errAt("unterminated string")
}

// escape decodes one backslash escape (the backslash already consumed).
func (s *jsonScan) escape() (rune, error) {
	if s.pos >= len(s.data) {
		return 0, s.errAt("unterminated escape")
	}
	c := s.data[s.pos]
	s.pos++
	switch c {
	case '"', '\\', '/':
		return rune(c), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		r, err := s.hex4()
		if err != nil {
			return 0, err
		}
		if utf16.IsSurrogate(r) {
			if s.pos+1 < len(s.data) && s.data[s.pos] == '\\' && s.data[s.pos+1] == 'u' {
				save := s.pos
				s.pos += 2
				r2, err := s.hex4()
				if err != nil {
					return 0, err
				}
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					return dec, nil
				}
				s.pos = save // lone surrogate; second escape re-parses
			}
			return utf8.RuneError, nil
		}
		return r, nil
	}
	return 0, s.errAt("invalid escape character %q", c)
}

func (s *jsonScan) hex4() (rune, error) {
	if s.pos+4 > len(s.data) {
		return 0, s.errAt("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := s.data[s.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, s.errAt("invalid \\u escape")
		}
	}
	s.pos += 4
	return r, nil
}

// skipValue validates and skips one JSON value of any shape (the
// unknown-member path).
func (s *jsonScan) skipValue() error {
	if s.pos >= len(s.data) {
		return s.errAt("unexpected end of input")
	}
	switch c := s.data[s.pos]; {
	case c == '{':
		s.pos++
		s.skipWS()
		if s.pos < len(s.data) && s.data[s.pos] == '}' {
			s.pos++
			return nil
		}
		for {
			s.skipWS()
			var kb [16]byte
			if _, err := s.key(kb[:0]); err != nil {
				return err
			}
			s.skipWS()
			if s.pos >= len(s.data) || s.data[s.pos] != ':' {
				return s.errAt("expected ':' in object")
			}
			s.pos++
			s.skipWS()
			if err := s.skipValue(); err != nil {
				return err
			}
			s.skipWS()
			if s.pos >= len(s.data) {
				return s.errAt("unexpected end of object")
			}
			if s.data[s.pos] == ',' {
				s.pos++
				continue
			}
			if s.data[s.pos] == '}' {
				s.pos++
				return nil
			}
			return s.errAt("expected ',' or '}' in object")
		}
	case c == '[':
		s.pos++
		s.skipWS()
		if s.pos < len(s.data) && s.data[s.pos] == ']' {
			s.pos++
			return nil
		}
		for {
			s.skipWS()
			if err := s.skipValue(); err != nil {
				return err
			}
			s.skipWS()
			if s.pos >= len(s.data) {
				return s.errAt("unexpected end of array")
			}
			if s.data[s.pos] == ',' {
				s.pos++
				continue
			}
			if s.data[s.pos] == ']' {
				s.pos++
				return nil
			}
			return s.errAt("expected ',' or ']' in array")
		}
	case c == '"':
		var kb [16]byte
		_, err := s.key(kb[:0])
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	default:
		return s.skipNumber()
	}
}

// skipNumber validates one JSON number (full grammar — skipped values
// may be floats).
func (s *jsonScan) skipNumber() error {
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	d := 0
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		s.pos++
		d++
	}
	if d == 0 {
		return s.errAt("invalid JSON value")
	}
	body := s.data[start:]
	if body[0] == '-' {
		body = body[1:]
	}
	if len(body) > 1 && body[0] == '0' && body[1] >= '0' && body[1] <= '9' {
		return s.errAt("invalid number literal")
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		d = 0
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
			d++
		}
		if d == 0 {
			return s.errAt("invalid number literal")
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		d = 0
		for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
			s.pos++
			d++
		}
		if d == 0 {
			return s.errAt("invalid number literal")
		}
	}
	return nil
}

// foldEq reports key == name under encoding/json's member matching
// (bytes.EqualFold semantics: ASCII case plus the two Unicode fold
// specials).
func foldEq(key []byte, name string) bool {
	return strings.EqualFold(string(key), name)
}

// ---------------------------------------------------------------------------
// streaming DIMACS

// decodeDIMACS parses a DIMACS / bare edge-list document (the grammar of
// Read) into a graph through the same pooled pair buffer and CSR-direct
// build as the JSON path. Unlike the pre-streaming Read it never
// panics: self-loops, out-of-range endpoints, bad vertex counts, and
// short edge lines are typed errors with line positions.
func decodeDIMACS(doc string) (*Graph, error) {
	ps := getPairScratch()
	defer putPairScratch(ps)
	n := -1
	line := 0
	for text := range strings.SplitSeq(doc, "\n") {
		line++
		text = strings.TrimSpace(text)
		if text == "" || text == "c" || strings.HasPrefix(text, "c ") {
			continue
		}
		// First four fields are enough for every line form; nf counts one
		// past to reject overlong "p" lines.
		var f [4]string
		nf := 0
		for field := range strings.FieldsSeq(text) {
			if nf < 4 {
				f[nf] = field
			}
			nf++
			if nf > 4 {
				break
			}
		}
		switch {
		case f[0] == "p":
			if nf != 4 || f[1] != "edge" {
				return nil, fmt.Errorf("graph: line %d: malformed problem line %q", line, text)
			}
			hn, err := parseDIMACSInt(f[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if _, err := parseDIMACSInt(f[3]); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if err := checkVertexCount(hn); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
			// A later problem line restarts the graph, as Read always did.
			n = int(hn)
			ps.pairs = ps.pairs[:0]
		case f[0] == "e":
			if n < 0 {
				return nil, fmt.Errorf("graph: line %d: edge before problem line", line)
			}
			if nf < 3 {
				return nil, fmt.Errorf("graph: line %d: malformed edge line %q", line, text)
			}
			u, err := parseDIMACSInt(f[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			v, err := parseDIMACSInt(f[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if err := appendWireEdge(ps, u-1, v-1, n); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
		default:
			if nf < 2 {
				return nil, fmt.Errorf("graph: line %d: unrecognized line %q", line, text)
			}
			a, err := parseDIMACSInt(f[0])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: unrecognized line %q", line, text)
			}
			b, err := parseDIMACSInt(f[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: unrecognized line %q", line, text)
			}
			if n < 0 {
				if err := checkVertexCount(a); err != nil {
					return nil, fmt.Errorf("graph: line %d: %w", line, err)
				}
				n = int(a) // bare header: "n m"
			} else if err := appendWireEdge(ps, a, b, n); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
		}
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: empty input")
	}
	return buildFromPairs(n, ps.pairs)
}

// appendWireEdge validates (u,v) against the shared edge rules and
// appends it to the pair buffer. The edge index in the error is the pair
// buffer position, matching the JSON decoder's numbering.
func appendWireEdge(ps *pairScratch, u, v int64, n int) error {
	if err := validateEdge(len(ps.pairs)/2, u, v, n); err != nil {
		return err
	}
	ps.pairs = append(ps.pairs, int32(u), int32(v))
	return nil
}

// parseDIMACSInt parses one whitespace-delimited integer token: optional
// sign, decimal digits, nothing else — the tokens fmt's %d scanning
// accepted.
func parseDIMACSInt(tok string) (int64, error) {
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", tok)
	}
	return v, nil
}
