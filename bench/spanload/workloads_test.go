package main

import (
	"strings"
	"testing"
)

// TestRequestListsAreDeterministic: the same seed gives byte-identical
// request lists; another seed gives other content in lists of the same
// sizes.
func TestRequestListsAreDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, quickSizes)
		c, _ := buildWorkload(name, 8, quickSizes)
		if a.listHash() != b.listHash() {
			t.Errorf("%s: seed 7 twice gave different request lists", name)
		}
		if a.listHash() == c.listHash() {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
		if len(a.reqs) != len(c.reqs) || len(a.ids) != len(c.ids) {
			t.Errorf("%s: seeds 7 and 8 gave %d/%d requests and %d/%d documents", name,
				len(a.reqs), len(c.reqs), len(a.ids), len(c.ids))
		}
		for i := range a.reqs {
			if len(a.reqs[i].docs) != len(c.reqs[i].docs) {
				t.Fatalf("%s request %d: %d documents under seed 7, %d under seed 8", name, i,
					len(a.reqs[i].docs), len(c.reqs[i].docs))
			}
		}
	}
}

// TestRequestShape: every request of a workload answers the same number
// of mappings, which is what keeps its cost unimodal.
func TestRequestShape(t *testing.T) {
	sz := quickSizes
	want := map[string]int{
		"weblog_stream": sz.streamLines,
		"sparse_scan":   sz.sparsePlants,
		"batch_rows":    sz.batchDocs * sz.batchRows,
	}
	for name, n := range want {
		w, err := buildWorkload(name, 3, sz)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range w.reqs {
			got := 0
			for _, d := range r.docs {
				got += len(w.truth(d))
			}
			if got != n {
				t.Errorf("%s request %d: truth has %d mappings, want %d", name, i, got, n)
			}
		}
	}
}

// TestOptionalVariablesFollowTheFields: r, t and p are absent exactly
// where the generated line lacks the field.
func TestOptionalVariablesFollowTheFields(t *testing.T) {
	has := func(m mapping, v string) bool {
		for _, tr := range m {
			if tr.v == v {
				return true
			}
		}
		return false
	}
	log := "1.2.3.4 GET /a 200 5 \"curl/8.0\" ref=/b\n5.6.7.8 PUT /c 404 6 \"curl/8.0\"\n"
	ms := weblogTruth(log)
	if len(ms) != 2 || !has(ms[0], "r") || has(ms[1], "r") {
		t.Errorf("weblog truth %v: want r on the first line only", ms)
	}
	if got := log[ms[0][2].start-1 : ms[0][2].end-1]; got != "/b" {
		t.Errorf("referer span reads %q, want /b", got)
	}
	land := "Seller: Ana Diaz, ID7, $35,000\nBuyer: Ivan Soto, ID832, P78\nSeller: Mark Munoz, ID75\n"
	ms = landTruth(land)
	if len(ms) != 3 || !has(ms[0], "t") || has(ms[0], "p") || !has(ms[1], "p") || has(ms[1], "t") ||
		has(ms[2], "t") || has(ms[2], "p") {
		t.Errorf("land truth %v: want t on row 1, p on row 2, neither on row 3", ms)
	}
}

// TestEditCyclesAreStateNeutral: after every fourth request of doc_edit
// the document is back at its base text, and the replacement keeps the
// document's length.
func TestEditCyclesAreStateNeutral(t *testing.T) {
	w, err := buildWorkload("doc_edit", 11, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]string{}
	for id, text := range w.stored {
		state[id] = text
	}
	for i, r := range w.reqs {
		before := state[r.docID]
		state[r.docID] = applySplice(before, r.splice)
		switch i % 4 {
		case 0:
			if n := strings.Count(state[r.docID], "\n"); n != quickSizes.editLines+1 {
				t.Fatalf("request %d: %d lines after the append, want %d", i, n, quickSizes.editLines+1)
			}
		case 2:
			if len(state[r.docID]) != len(before) || state[r.docID] == before {
				t.Fatalf("request %d: the replacement must change the text and keep its length", i)
			}
			if len(w.truth(state[r.docID])) != quickSizes.editLines {
				t.Fatalf("request %d: the replaced line no longer matches", i)
			}
		case 3:
			if state[r.docID] != w.stored[r.docID] {
				t.Fatalf("request %d: document %s is not back at its base text", i, r.docID)
			}
		}
	}
}
