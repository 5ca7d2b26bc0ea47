package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"spanners"
	"spanners/internal/service"
	"spanners/internal/workload"
)

// spanJSON and resultMap are the wire form the hand-written result
// encoding replaced: one map per mapping, rendered by encoding/json.
type spanJSON struct {
	Start   int    `json:"start"`
	End     int    `json:"end"`
	Content string `json:"content"`
}

type resultMap map[string]spanJSON

// oracleResults renders every mapping of expr on doc in the old form.
func oracleResults(t *testing.T, expr, doc string) []resultMap {
	t.Helper()
	d := spanners.NewDocument(doc)
	out := []resultMap{}
	for _, m := range spanners.MustCompile(expr).ExtractAll(d) {
		r := resultMap{}
		for v, sp := range m {
			r[string(v)] = spanJSON{Start: sp.Start, End: sp.End, Content: d.Content(sp)}
		}
		out = append(out, r)
	}
	return out
}

// The three query shapes of the spanload workloads.
const (
	weblogShape = `.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`
	sparseShape = `.*m{TRACE} (p{/admin/[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`
	landShape   = `.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`
)

// TestExtractBodiesMatchOracle: whole /v1/extract and
// /v1/extract/stream bodies for the three spanload query shapes are
// byte-identical to encoding/json re-encoding them through the old map
// form, and hold the mappings the library extracts.
func TestExtractBodiesMatchOracle(t *testing.T) {
	h := New(service.New(service.Config{Workers: 2}), Options{})
	log := workload.WebLog(workload.WebLogOptions{Lines: 24, ReferProb: 0.35, Seed: 3})
	special := "1.2.3.4 TRACE /admin/<&> 403 7 \"curl\\\u00e9\" ref=/na\u00efve \"x\"\u2028\n"
	cases := []struct {
		expr string
		docs []string
	}{
		{weblogShape, []string{log, "1.2.3.4 GET /<&>\u00e9 200 5 \"a\\b\" ref=\"q\"\u2028\n"}},
		{sparseShape, []string{log + special + log, special, "no match"}},
		{landShape, []string{
			workload.LandRegistry(workload.LandRegistryOptions{Rows: 8, TaxProb: 0.5, Seed: 5}),
			"Seller: Zo\u00eb <&> \"Q\", ID7, $1,000\nBuyer: \t\x01, ID, P\n",
			"",
		}},
	}
	post := func(path string, body any) []byte {
		t.Helper()
		b, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	reencode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range cases {
		body := post("/v1/extract", map[string]any{"expr": c.expr, "docs": c.docs})
		var decoded struct {
			Results [][]resultMap `json:"results"`
		}
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatal(err)
		}
		if again := reencode(decoded); !bytes.Equal(body, again) {
			t.Fatalf("%s: /v1/extract body\n%s\ndiffers from its re-encoding\n%s", c.expr, body, again)
		}
		want := [][]resultMap{}
		for _, doc := range c.docs {
			want = append(want, oracleResults(t, c.expr, doc))
		}
		if len(want[0]) == 0 || len(want[1]) == 0 {
			t.Fatalf("%s: a document has no mappings to compare", c.expr)
		}
		if got, exp := reencode(decoded.Results), reencode(want); !bytes.Equal(got, exp) {
			t.Fatalf("%s: results\n%s\nwant\n%s", c.expr, got, exp)
		}

		for _, doc := range c.docs {
			body := post("/v1/extract/stream", map[string]any{"expr": c.expr, "doc": doc})
			var again []byte
			sc := bufio.NewScanner(bytes.NewReader(body))
			sc.Buffer(nil, 1<<20)
			lines := []resultMap{}
			for sc.Scan() {
				var r resultMap
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatal(err)
				}
				lines = append(lines, r)
				again = append(again, reencode(r)...)
			}
			if !bytes.Equal(body, again) {
				t.Fatalf("%s: stream body\n%s\ndiffers from its re-encoding\n%s", c.expr, body, again)
			}
			if got, exp := reencode(lines), reencode(oracleResults(t, c.expr, doc)); !bytes.Equal(got, exp) {
				t.Fatalf("%s: streamed\n%s\nwant\n%s", c.expr, got, exp)
			}
		}
	}
}
