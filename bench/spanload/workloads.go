package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"strings"

	"spanners/client"
	"spanners/internal/workload"
)

// The three queries. weblogExpr is examples/weblog's line query: four
// variables, the referer one optional, so lines without a referer give
// partial mappings. sparseExpr is the same line shape restricted to a
// method the generator never emits, so only planted lines match.
// landExpr reads one row of the paper's Table 1 per mapping: tax is
// optional on seller rows, the parcel only exists on buyer rows.
const (
	weblogExpr = `.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`
	sparseExpr = `.*m{TRACE} (p{/admin/[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`
	landExpr   = `.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`
)

// queryName is the registry name the pinned workloads register their
// expression under; requests then reference "name@version".
const queryName = "spanload-line"

// sizes fixes the shape of every workload. All requests of a workload
// have the same shape and size, so a latency median never sits between
// two modes; only the seeded content differs.
type sizes struct {
	streamN, streamLines               int // weblog_stream
	sparseN, sparseLines, sparsePlants int // sparse_scan
	batchN, batchDocs, batchRows       int // batch_rows
	editDocs, editLines, editCycles    int // doc_edit: N = docs × cycles × 4
	minPasses                          int // timed passes, at least
	setups                             int // set-ups per run; setup_s is their median
	ladderReqs, ladderReps             int // ladder: first k requests, best of r
}

// fullSizes is sized so that one pass takes 1.5–2.5 s on the seed code
// (2 × Xeon 2.1 GHz): the driver's cap on total time leaves about 25 s
// per run, three set-ups included, where the issue planned for 40.
var fullSizes = sizes{
	streamN: 100, streamLines: 96,
	sparseN: 100, sparseLines: 500, sparsePlants: 3,
	batchN: 150, batchDocs: 128, batchRows: 4,
	editDocs: 4, editLines: 384, editCycles: 25,
	minPasses: 3, setups: 3,
	ladderReqs: 8, ladderReps: 3,
}

// quickSizes is the smoke-test shape: a tenth of the requests, one
// pass, one set-up, the ladder on two requests.
var quickSizes = sizes{
	streamN: 10, streamLines: 96,
	sparseN: 10, sparseLines: 500, sparsePlants: 3,
	batchN: 15, batchDocs: 128, batchRows: 4,
	editDocs: 2, editLines: 64, editCycles: 2,
	minPasses: 1, setups: 1,
	ladderReqs: 2, ladderReps: 1,
}

type kind int

const (
	kindBatch  kind = iota // POST /v1/extract, inline docs
	kindStream             // POST /v1/extract/stream, one inline doc
	kindEdit               // PATCH /v1/documents/{id}, then POST /v1/extract by doc_ids
)

// request is one operation of the closed loop. Ground truth is not
// stored per request: it is a function of the document text (see
// truth.go) and is computed while the warm-up pass verifies.
type request struct {
	docs   []string      // inline documents; one for kindStream, none for kindEdit
	docID  string        // kindEdit: the stored document
	splice client.Splice // kindEdit: the edit applied before extraction
}

// workloadSpec is a generated workload: the query, the stored
// documents it needs and the fixed request list every pass replays.
type workloadSpec struct {
	name   string
	kind   kind
	expr   string
	pinned bool                        // query is registered and referenced as name@version
	stored map[string]string           // document id → base text (kindEdit)
	ids    []string                    // stored ids in PUT order
	reqs   []request                   // the list every pass replays
	truth  func(text string) []mapping // expected mappings of one document
}

var workloadNames = []string{"weblog_stream", "sparse_scan", "batch_rows", "doc_edit"}

// buildWorkload generates the named workload from seed. The same seed
// gives byte-identical request lists; another seed gives other content
// in lists of the same sizes.
func buildWorkload(name string, seed int64, sz sizes) (*workloadSpec, error) {
	// Each workload draws from its own stream so that adding a request
	// to one never shifts another's content.
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	w := &workloadSpec{name: name}
	switch name {
	case "weblog_stream":
		w.kind, w.expr, w.pinned, w.truth = kindStream, weblogExpr, true, weblogTruth
		for i := 0; i < sz.streamN; i++ {
			w.reqs = append(w.reqs, request{docs: []string{webLog(sz.streamLines, rng)}})
		}
	case "sparse_scan":
		w.kind, w.expr, w.truth = kindBatch, sparseExpr, sparseTruth
		for i := 0; i < sz.sparseN; i++ {
			w.reqs = append(w.reqs, request{docs: []string{plantedLog(sz.sparseLines, sz.sparsePlants, rng)}})
		}
	case "batch_rows":
		w.kind, w.expr, w.truth = kindBatch, landExpr, landTruth
		for i := 0; i < sz.batchN; i++ {
			docs := make([]string, sz.batchDocs)
			for j := range docs {
				docs[j] = workload.LandRegistry(workload.LandRegistryOptions{
					Rows: sz.batchRows, TaxProb: 0.5, Seed: rng.Int63()})
			}
			w.reqs = append(w.reqs, request{docs: docs})
		}
	case "doc_edit":
		w.kind, w.expr, w.pinned, w.truth = kindEdit, weblogExpr, true, weblogTruth
		w.stored = map[string]string{}
		// An edit's cost depends on the document's block structure, and
		// eight documents do not average that out. So the line lengths
		// are the same for every seed and the seed fills in the digits.
		for d := 0; d < sz.editDocs; d++ {
			id := fmt.Sprintf("log-%d", d)
			w.ids = append(w.ids, id)
			w.stored[id] = reseedDigits(workload.WebLog(workload.WebLogOptions{
				Lines: sz.editLines, ReferProb: 0.35, Seed: int64(d + 1)}), rng)
		}
		for c := 0; c < sz.editCycles; c++ {
			for d, id := range w.ids {
				for _, sp := range editCycle(w.stored[id], c*len(w.ids)+d) {
					w.reqs = append(w.reqs, request{docID: id, splice: sp})
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

func webLog(lines int, rng *rand.Rand) string {
	return workload.WebLog(workload.WebLogOptions{Lines: lines, ReferProb: 0.35, Seed: rng.Int63()})
}

// reseedDigits replaces every digit of text with a seeded one, which
// changes the content and keeps every length and character class.
func reseedDigits(text string, rng *rand.Rand) string {
	b := []byte(text)
	for i, c := range b {
		if c >= '0' && c <= '9' {
			b[i] = byte('0' + rng.Intn(10))
		}
	}
	return string(b)
}

// plantedLog is a web log in which exactly plants lines match
// sparseExpr. Enumeration cost grows with the distance from a match to
// the end of the document, so the planted lines sit at fixed fractions
// of the log (jittered by a few lines) to keep every request's cost the
// same. The middle plant carries a referer, the others do not.
func plantedLog(lines, plants int, rng *rand.Rand) string {
	ls := strings.SplitAfter(webLog(lines, rng), "\n")
	ls = ls[:lines] // SplitAfter leaves an empty tail
	for k := 0; k < plants; k++ {
		at := min(max((2*k+1)*lines/(2*plants)+rng.Intn(7)-3, 0), lines-1)
		line := fmt.Sprintf("%d.%d.%d.%d TRACE /admin/%s 403 %d \"curl/8.0\"",
			rng.Intn(224)+1, rng.Intn(256), rng.Intn(256), rng.Intn(256),
			[]string{"users", "keys", "audit", "shell"}[rng.Intn(4)], rng.Intn(1000))
		if k == plants/2 {
			line += " ref=/index.html"
		}
		ls[at] = line + "\n"
	}
	return strings.Join(ls, "")
}

// editCycle returns four splices that leave text as they found it:
// append a line (a copy of an existing one), delete it, replace a line
// in the middle half with an equal-length variant, restore it. What an
// edit costs depends on where it lands, so the k-th cycle's lines are
// fixed by k, not drawn: successive k sweep the middle half evenly and
// every seed edits the same positions. Offsets are bytes; text must end
// in a newline.
func editCycle(text string, k int) [4]client.Splice {
	var starts []int
	eachLine(text, func(_ string, off int) { starts = append(starts, off) })
	n := len(starts)
	lineAt := func(i int) string {
		if i+1 < n {
			return text[starts[i]:starts[i+1]]
		}
		return text[starts[i]:]
	}
	const stride = 61 // odd, so coprime to the power-of-two line counts
	tail := lineAt(k * stride % n)
	mid := n/4 + k*stride%max(n/2, 1)
	old := lineAt(mid)
	return [4]client.Splice{
		{Offset: len(text), Insert: tail},
		{Offset: len(text), DeleteLen: len(tail)},
		{Offset: starts[mid], DeleteLen: len(old), Insert: bumpDigit(old)},
		{Offset: starts[mid], DeleteLen: len(old), Insert: old},
	}
}

// bumpDigit returns line with its first digit replaced by the next
// one, an edit that keeps the length and, in every generated line
// shape, keeps the line matching.
func bumpDigit(line string) string {
	i := strings.IndexAny(line, "0123456789")
	if i < 0 {
		return line
	}
	return line[:i] + string('0'+(line[i]-'0'+1)%10) + line[i+1:]
}

// applySplice is the client-side model of PATCH /v1/documents/{id}.
func applySplice(text string, sp client.Splice) string {
	return text[:sp.Offset] + sp.Insert + text[sp.Offset+sp.DeleteLen:]
}

// baseState is the client-side model of the document store after
// set-up: every stored document at its base text.
func (w *workloadSpec) baseState() map[string]string { return maps.Clone(w.stored) }

// answered returns the documents request r's extraction answers: its
// inline documents, or, for an edit, the stored document after the edit
// has been applied to state.
func (w *workloadSpec) answered(state map[string]string, r request) []string {
	if w.kind != kindEdit {
		return r.docs
	}
	state[r.docID] = applySplice(state[r.docID], r.splice)
	return []string{state[r.docID]}
}

// query returns the wire query of the workload; ref is the pinned
// "name@version" reference obtained at set-up (unused when inline).
func (w *workloadSpec) query(ref string) client.Query {
	if w.pinned {
		return client.Query{Spanner: ref}
	}
	return client.Query{Expr: w.expr}
}

// encode renders request r as wire bodies: the extract (or stream)
// body and, for kindEdit, the PATCH body before it.
func (w *workloadSpec) encode(r request, ref string) (patch, extract []byte) {
	var body any
	switch w.kind {
	case kindStream:
		body = client.StreamRequest{Query: w.query(ref), Doc: r.docs[0]}
	case kindBatch:
		body = client.ExtractRequest{Query: w.query(ref), Docs: r.docs}
	case kindEdit:
		body = client.ExtractRequest{Query: w.query(ref), DocIDs: []string{r.docID}}
		patch = mustJSON(r.splice)
	}
	return patch, mustJSON(body)
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints cannot fail
	}
	return raw
}

// listHash fingerprints the request list (and stored documents), the
// value the determinism tests compare.
func (w *workloadSpec) listHash() uint64 {
	h := fnv.New64a()
	for _, id := range w.ids {
		fmt.Fprintf(h, "%s\x00%s\x00", id, w.stored[id])
	}
	for _, r := range w.reqs {
		patch, extract := w.encode(r, queryName+"@v")
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", r.docID, patch, extract)
	}
	return h.Sum64()
}
