package rgx

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseRGX: Parse never panics, rejects only with a *ParseError,
// and the printed form of an accepted tree parses back to the same
// tree and prints to itself — the property the registry relies on when
// it replans a manifest from its recorded source text.
func FuzzParseRGX(f *testing.F) {
	for _, seed := range []string{
		// The spanload workload queries (weblog_stream and doc_edit
		// share the first).
		`.*(\n|())m{GET|POST|PUT|DELETE} (p{[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`,
		`.*m{TRACE} (p{/admin/[^ ]*}) (st{\d\d\d}) \d* "[^"]*"( ref=(r{[^\n]*})|)\n.*`,
		`.*(Seller|Buyer): name{[^,\n]*}, ID(id{\d*})(, \$t{[^\n]*}|, P(p{\d*})|)\n.*`,
		`.*(Seller: x{[^,\n]*},[^\n]*\n).*`,
		"\U000a4282",
		`[\u0000-\u001f]x{\U0010ffff}`,
		"é(b{c})",
		// Nested past maxDepth by groups, and by a postfix chain.
		strings.Repeat("(", maxDepth+1) + "a" + strings.Repeat(")", maxDepth+1),
		"x{a" + strings.Repeat("*", maxDepth) + "}",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		n, err := Parse(in)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q): untyped error %T: %v", in, err, err)
			}
			return
		}
		// e+ parses as e·e*, sharing e, so nested repetitions double the
		// printed form per level: Parse stays linear, printing does not.
		if strings.Count(in, "+") > 8 {
			return
		}
		printed := n.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", in, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("Parse(%q) printed %q, which reprints as %q", in, printed, again)
		}
		if !Equal(n, back) {
			t.Fatalf("Parse(%q) printed %q, which parses to another tree:\n  %#v\n  %#v", in, printed, n, back)
		}
	})
}
