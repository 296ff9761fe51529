package graph

import (
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
// sync.Pools. Edge elements written [u,v] without whitespace, as every
// encoder here writes them, are parsed by a fast path (compactEdge);
// any other spelling takes the general element parser.
//
// One scanner (jsonScan) reads every JSON body: Graph.UnmarshalJSON and
// DecodeBody for bare graphs, and, through the exported JSONReader, the
// request envelopes of the service and the router, which build their
// graph in the middle of the envelope scan. A body is therefore scanned
// exactly once. Nesting is bounded at encoding/json's depth (10000), so a
// deeply nested member is an error, not a stack overflow. The previous
// encoding/json-based graph decoder is retained as decodeJSONReference
// and pinned bit-identical (CSR arrays and fingerprint) to the streaming
// decoder by decoder-equivalence tests and FuzzDecodeEquivalence.
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
	// ErrDuplicateMember rejects a JSON object that repeats a member the
	// decoder reads: "n" or "edges" in a graph, any member of a request
	// envelope read through JSONReader.Object. RFC 8259 leaves
	// duplicate-member semantics undefined, and the streaming decoder
	// refuses to guess where encoding/json lets the last one win.
	ErrDuplicateMember = errors.New("duplicate member in JSON object")
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

// maxJSONDepth bounds the nesting of arrays and objects in one document,
// counted from its top as encoding/json's scanner counts it, so a deep
// body is rejected before the recursive readers can exhaust a stack.
const maxJSONDepth = 10000

// decodeJSONGraph is the streaming decoder behind Graph.UnmarshalJSON and
// DecodeBody. It accepts exactly what the encoding/json reference accepts
// — member order free, unknown members skipped, member names matched as
// encoding/json matches them, null as the empty graph, nesting up to
// encoding/json's depth bound — except that duplicate "n"/"edges" members
// are rejected (ErrDuplicateMember) instead of silently last-winning.
func decodeJSONGraph(data []byte) (*Graph, error) {
	s := jsonScan{data: data}
	s.skipWS()
	g, err := s.graph()
	if err != nil {
		return nil, err
	}
	if err := s.end(); err != nil {
		return nil, err
	}
	if g == nil {
		// A JSON null leaves the zero value, like encoding/json: an empty
		// graph.
		return New(0), nil
	}
	return g, nil
}

type jsonScan struct {
	data  []byte
	pos   int
	depth int // arrays and objects open at pos
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
	return fmt.Errorf("json offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// end requires only trailing whitespace to remain.
func (s *jsonScan) end() error {
	s.skipWS()
	if s.pos != len(s.data) {
		return s.errAt("trailing data after JSON value")
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

// enter steps into the array or object opening at pos.
func (s *jsonScan) enter() error {
	if s.depth == maxJSONDepth {
		return s.errAt("nesting exceeds depth %d", maxJSONDepth)
	}
	s.depth++
	s.pos++
	return nil
}

// members reads one object, calling member with each member's unescaped
// key to read that member's value.
func (s *jsonScan) members(member func(key []byte) error) error {
	if s.pos >= len(s.data) || s.data[s.pos] != '{' {
		return s.errAt("expected an object")
	}
	if err := s.enter(); err != nil {
		return err
	}
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == '}' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		s.skipWS()
		key, err := s.str(nil)
		if err != nil {
			return err
		}
		s.skipWS()
		if s.pos >= len(s.data) || s.data[s.pos] != ':' {
			return s.errAt("expected ':' after object key")
		}
		s.pos++
		s.skipWS()
		if err := member(key); err != nil {
			return err
		}
		s.skipWS()
		if s.pos >= len(s.data) {
			return s.errAt("unexpected end of object")
		}
		switch s.data[s.pos] {
		case ',':
			s.pos++
		case '}':
			s.pos++
			s.depth--
			return nil
		default:
			return s.errAt("expected ',' or '}' in object")
		}
	}
}

// elements reads one array, calling elem to read each element.
func (s *jsonScan) elements(elem func() error) error {
	if s.pos >= len(s.data) || s.data[s.pos] != '[' {
		return s.errAt("expected an array")
	}
	if err := s.enter(); err != nil {
		return err
	}
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		s.skipWS()
		if err := elem(); err != nil {
			return err
		}
		s.skipWS()
		if s.pos >= len(s.data) {
			return s.errAt("unexpected end of array")
		}
		switch s.data[s.pos] {
		case ',':
			s.pos++
		case ']':
			s.pos++
			s.depth--
			return nil
		default:
			return s.errAt("expected ',' or ']' in array")
		}
	}
}

// graph reads one graph value: the object form, a DIMACS document as a
// JSON string, or null, which reads as no graph (nil).
func (s *jsonScan) graph() (*Graph, error) {
	if s.pos >= len(s.data) {
		return nil, s.errAt("unexpected end of JSON input")
	}
	switch s.data[s.pos] {
	case '"':
		doc, err := s.str(nil)
		if err != nil {
			return nil, err
		}
		return decodeDIMACS(string(doc))
	case 'n':
		return nil, s.literal("null")
	case '{':
		return s.object()
	}
	return nil, s.errAt("graph must be an object, a DIMACS string, or null")
}

// object reads the {"n","edges"} form into a graph.
func (s *jsonScan) object() (*Graph, error) {
	ps := getPairScratch()
	defer putPairScratch(ps)
	var (
		n               int64
		nSeen, edgeSeen bool
	)
	err := s.members(func(key []byte) error {
		switch {
		case foldEq(key, "n"):
			if nSeen {
				return duplicate(key)
			}
			nSeen = true
			var err error
			n, err = s.integer()
			return err
		case foldEq(key, "edges"):
			if edgeSeen {
				return duplicate(key)
			}
			edgeSeen = true
			return s.edges(ps)
		}
		return s.skipValue()
	})
	if err != nil {
		return nil, err
	}
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	return buildFromPairs(int(n), ps.pairs)
}

func duplicate(key []byte) error {
	return fmt.Errorf("%w %q", ErrDuplicateMember, key)
}

// edges parses the [[u,v],…] member into the flat pair buffer. A null
// member is the usual no-op; a null edge element is a zero-length edge
// (rejected later); a null endpoint is 0 — all matching what
// encoding/json produces decoding into a fresh [][]int. Elements written
// [u,v] in the compact form an encoder emits take compactEdge's fast
// path; everything else goes through edgeElement.
func (s *jsonScan) edges(ps *pairScratch) error {
	if s.pos < len(s.data) && s.data[s.pos] == 'n' {
		return s.literal("null")
	}
	return s.elements(func() error {
		// An element array sits one level below the edges array.
		if s.depth < maxJSONDepth && s.compactEdge(ps) {
			return nil
		}
		return s.edgeElement(ps)
	})
}

// compactDigits is the most digits compactEdge reads for one endpoint: a
// value of six digits or fewer is below MaxWireVertices, so the fast path
// never needs the general path's range check.
const compactDigits = 6

// compactEdge parses an edge element written exactly [u,v] — decimal
// digits only, with no whitespace, sign or leading zero and at most
// compactDigits digits an endpoint — straight into the pair buffer. On
// any other element it reads nothing and reports false.
func (s *jsonScan) compactEdge(ps *pairScratch) bool {
	d, i := s.data, s.pos
	if i >= len(d) || d[i] != '[' {
		return false
	}
	u, i := compactEndpoint(d, i+1)
	if u < 0 || i >= len(d) || d[i] != ',' {
		return false
	}
	v, i := compactEndpoint(d, i+1)
	if v < 0 || i >= len(d) || d[i] != ']' {
		return false
	}
	ps.pairs = append(ps.pairs, u, v)
	s.pos = i + 1
	return true
}

// compactEndpoint parses the digits at d[i:] for compactEdge, returning
// the value and the index after the digits, or -1 when the digits are
// missing, have a leading zero or run past compactDigits.
func compactEndpoint(d []byte, i int) (int32, int) {
	start := i
	var v int32
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		if i-start == compactDigits {
			return -1, i
		}
		v = v*10 + int32(d[i]-'0')
	}
	if i == start || (d[start] == '0' && i-start > 1) {
		return -1, i
	}
	return v, i
}

// edgeElement parses one [u,v] (or null) element, appending exactly one
// endpoint pair or failing with the same has-N-endpoints error the
// reference produces. Errors number the element by its pair-buffer
// position.
func (s *jsonScan) edgeElement(ps *pairScratch) error {
	edge := len(ps.pairs) / 2
	if s.pos < len(s.data) && s.data[s.pos] == 'n' {
		if err := s.literal("null"); err != nil {
			return err
		}
		return fmt.Errorf("graph: edge %d has 0 endpoints, want exactly 2", edge)
	}
	if s.pos >= len(s.data) || s.data[s.pos] != '[' {
		return s.errAt("edge %d must be an array of two endpoints", edge)
	}
	var ends [2]int64
	count := 0
	err := s.elements(func() error {
		v, err := s.integer()
		if count < 2 {
			ends[count] = v
		}
		count++
		return err
	})
	if err != nil {
		return err
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

// integer parses a strict JSON integer (no fraction, no exponent, int64
// range — what encoding/json accepts into an int), or null, which reads
// as 0 as it leaves a fresh int. The digits are accumulated in place;
// only a literal of more than 18 digits, which may leave the int64 range,
// goes through strconv.ParseInt.
func (s *jsonScan) integer() (int64, error) {
	if s.pos < len(s.data) && s.data[s.pos] == 'n' {
		return 0, s.literal("null")
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
		return 0, s.errAt("expected an integer")
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
		return 0, s.errAt("invalid number literal %q", lit)
	}
	if s.pos < len(s.data) {
		switch s.data[s.pos] {
		case '.', 'e', 'E':
			return 0, s.errAt("number %q is not an integer", lit)
		}
	}
	if digits > 18 {
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return 0, s.errAt("integer %q out of range", lit)
		}
		return v, nil
	}
	if neg {
		v = -v
	}
	return v, nil
}

// str parses a JSON string and returns its unescaped bytes: a subslice
// of the input when the string is plain ASCII, else bytes appended to
// buf. Decoding matches encoding/json: \uXXXX with surrogate pairs, lone
// surrogates and invalid UTF-8 replaced by U+FFFD.
func (s *jsonScan) str(buf []byte) ([]byte, error) {
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, s.errAt("expected a string")
	}
	s.pos++
	start := s.pos
	// Fast path: plain ASCII, no escapes.
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		if c == '"' {
			out := s.data[start:s.pos]
			s.pos++
			return out, nil
		}
		if c == '\\' || c >= utf8.RuneSelf {
			break
		}
		if c < 0x20 {
			return nil, s.errAt("control character in string")
		}
		s.pos++
	}
	out := append(buf, s.data[start:s.pos]...)
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
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
		case c < utf8.RuneSelf:
			out = append(out, c)
			s.pos++
		default:
			r, size := utf8.DecodeRune(s.data[s.pos:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
			} else {
				out = append(out, s.data[s.pos:s.pos+size]...)
			}
			s.pos += size
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
	switch s.data[s.pos] {
	case '{':
		return s.members(func([]byte) error { return s.skipValue() })
	case '[':
		return s.elements(s.skipValue)
	case '"':
		var kb [16]byte
		_, err := s.str(kb[:0])
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	return s.skipNumber()
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
// JSONReader: the scanner for request envelopes

// JSONReader reads one JSON document in a single forward pass, for the
// decoders of request envelopes that carry a graph: objects with a fixed
// set of members, arrays, strings, integers, booleans, null, and graph
// values built in place by the graph decoder. It shares that decoder's
// scanner, so a whole body is scanned once under one set of rules,
// including the depth bound. Nothing it returns refers to the
// document's bytes.
//
// A null read by Str, Int or Bool gives that type's zero value, which is
// what encoding/json leaves in a fresh field; Null tells a null apart
// where a pointer or slice must stay nil.
type JSONReader struct{ s jsonScan }

// NewJSONReader returns a reader at the start of data.
func NewJSONReader(data []byte) JSONReader { return JSONReader{s: jsonScan{data: data}} }

// Null reads a null if one comes next and reports whether it did.
func (r *JSONReader) Null() (bool, error) {
	r.s.skipWS()
	if r.s.pos < len(r.s.data) && r.s.data[r.s.pos] == 'n' {
		return true, r.s.literal("null")
	}
	return false, nil
}

// Object reads an object whose member names are drawn from names (at
// most 64), calling member with the matched name to read each member's
// value. A key matches as encoding/json matches struct fields: exactly,
// else under case folding. An unknown member is rejected, and so is a
// repeated one (ErrDuplicateMember).
func (r *JSONReader) Object(names []string, member func(name string) error) error {
	r.s.skipWS()
	var seen uint64
	return r.s.members(func(key []byte) error {
		i := -1
		for j, name := range names {
			if string(key) == name {
				i = j
				break
			}
		}
		for j := 0; i < 0 && j < len(names); j++ {
			if foldEq(key, names[j]) {
				i = j
			}
		}
		if i < 0 {
			return r.s.errAt("unknown member %q", key)
		}
		if seen&(1<<i) != 0 {
			return duplicate(key)
		}
		seen |= 1 << i
		return member(names[i])
	})
}

// Array reads an array, calling elem to read each element.
func (r *JSONReader) Array(elem func() error) error {
	r.s.skipWS()
	return r.s.elements(elem)
}

// Str reads a string, decoded as encoding/json decodes one (invalid
// UTF-8 becomes U+FFFD).
func (r *JSONReader) Str() (string, error) {
	if null, err := r.Null(); null || err != nil {
		return "", err
	}
	b, err := r.s.str(nil)
	return string(b), err
}

// Int reads an integer that fits a signed Go integer of the given bit
// size; a fraction, an exponent or a value out of range is rejected.
func (r *JSONReader) Int(bitSize int) (int64, error) {
	r.s.skipWS()
	v, err := r.s.integer()
	if err == nil && bitSize < 64 && (v < -1<<(bitSize-1) || v >= 1<<(bitSize-1)) {
		return 0, r.s.errAt("integer %d out of range for int%d", v, bitSize)
	}
	return v, err
}

// Bool reads true or false.
func (r *JSONReader) Bool() (bool, error) {
	s := &r.s
	s.skipWS()
	if s.pos < len(s.data) {
		switch s.data[s.pos] {
		case 't':
			return true, s.literal("true")
		case 'f':
			return false, s.literal("false")
		case 'n':
			return false, s.literal("null")
		}
	}
	return false, s.errAt("expected a boolean")
}

// Graph reads a graph value — the object form, a DIMACS document as a
// JSON string, or null, which reads as no graph (nil) — building the
// graph as the scan passes over it.
func (r *JSONReader) Graph() (*Graph, error) {
	r.s.skipWS()
	return r.s.graph()
}

// End reports an error unless only whitespace remains.
func (r *JSONReader) End() error { return r.s.end() }

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
