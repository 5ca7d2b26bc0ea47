package registry

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spanners"
)

const sellerExpr = `.*(Seller: x{[^,\n]*},[^\n]*\n).*`

func open(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegisterIsIdempotentAndContentAddressed(t *testing.T) {
	r := open(t)
	m1, created, err := r.Register("seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first registration reported created=false")
	}
	if len(m1.Version) != VersionLen {
		t.Fatalf("version %q has wrong length", m1.Version)
	}
	if m1.Ref() != "seller@"+m1.Version {
		t.Fatalf("Ref() = %q", m1.Ref())
	}

	m2, created, err := r.Register("seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("re-registering an identical source created a new version")
	}
	if m2.Version != m1.Version || !m2.CreatedAt.Equal(m1.CreatedAt) {
		t.Fatalf("idempotent re-registration changed the manifest: %+v -> %+v", m1, m2)
	}

	// A different source under the same name becomes a new version and
	// moves latest.
	m3, created, err := r.Register("seller", `x{a*}b`)
	if err != nil || !created {
		t.Fatalf("new source: created=%v err=%v", created, err)
	}
	if m3.Version == m1.Version {
		t.Fatal("distinct sources share a content address")
	}
	latest, err := r.Manifest("seller", "")
	if err != nil || latest.Version != m3.Version {
		t.Fatalf("latest = %+v, want version %s (err=%v)", latest, m3.Version, err)
	}
	// The old version stays pinnable.
	if pinned, err := r.Manifest("seller", m1.Version); err != nil || pinned.Source != sellerExpr {
		t.Fatalf("pinned old version: %+v err=%v", pinned, err)
	}
}

func TestLoadServesWithoutRecompiling(t *testing.T) {
	r := open(t)
	man, _, err := r.Register("seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}
	sp, got, err := r.Load("seller", "")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != man.Version {
		t.Fatalf("loaded version %s, want %s", got.Version, man.Version)
	}
	if sp.Automaton() != nil {
		t.Fatal("loaded spanner has an automaton: it was recompiled, not decoded")
	}
	d := spanners.NewDocument("Seller: Anna, 12 Hill St\n")
	ms := sp.ExtractAll(d)
	if len(ms) != 1 || d.Content(ms[0]["x"]) != "Anna" {
		t.Fatalf("loaded spanner extracted %v", ms)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	src := open(t)
	man, _, err := src.Register("seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}
	artifact, _, err := src.Artifact("seller", "")
	if err != nil {
		t.Fatal(err)
	}

	dst := open(t)
	imported, created, err := dst.Put("copied", artifact)
	if err != nil || !created {
		t.Fatalf("Put: created=%v err=%v", created, err)
	}
	if imported.Version != man.Version {
		t.Fatalf("imported version %s, want the content address %s", imported.Version, man.Version)
	}
	if imported.Source != sellerExpr {
		t.Fatalf("imported source %q", imported.Source)
	}
	if _, _, err := dst.Load("copied", man.Version); err != nil {
		t.Fatal(err)
	}

	// Garbage artifacts are rejected before touching disk.
	if _, _, err := dst.Put("bad", []byte("not an artifact")); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("Put(garbage) = %v, want ErrBadArtifact", err)
	}
	if _, err := dst.Manifest("bad", ""); !errors.Is(err, ErrNotFound) {
		t.Fatal("rejected Put left a manifest behind")
	}
}

func TestCorruptedArtifactDetected(t *testing.T) {
	r := open(t)
	man, _, err := r.Register("seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(r.Dir(), "seller", man.Version+".bin")
	b, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(binPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := r.Load("seller", ""); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("Load of corrupted artifact = %v, want ErrBadArtifact", err)
	}
	// Truncation is detected by the content address too.
	if err := os.WriteFile(binPath, b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Artifact("seller", ""); !errors.Is(err, ErrBadArtifact) {
		t.Fatalf("Artifact of truncated file = %v, want ErrBadArtifact", err)
	}
	// The manifest survives, so callers can recompile from source.
	man2, err := r.Manifest("seller", "")
	if err != nil || man2.Source != sellerExpr {
		t.Fatalf("manifest lost after corruption: %+v err=%v", man2, err)
	}
}

// TestReRegisterRepairsMissingArtifact covers the interrupted-delete
// scenario: a manifest whose .bin vanished must be repaired by
// re-registering the identical source (idempotent, created=false),
// not treated as already-stored and left permanently unloadable.
func TestReRegisterRepairsMissingArtifact(t *testing.T) {
	r := open(t)
	man, _, err := r.Register("seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(r.Dir(), "seller", man.Version+".bin")
	if err := os.Remove(binPath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Load("seller", man.Version); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load with missing .bin = %v, want ErrNotFound", err)
	}
	man2, created, err := r.Register("seller", sellerExpr)
	if err != nil || created || man2.Version != man.Version {
		t.Fatalf("repair registration: %+v created=%v err=%v", man2, created, err)
	}
	if _, _, err := r.Load("seller", man.Version); err != nil {
		t.Fatalf("Load after repair: %v", err)
	}
}

func TestDeleteAndVersions(t *testing.T) {
	r := open(t)
	m1, _, _ := r.Register("s", `x{a*}b`)
	m2, _, err := r.Register("s", `x{a*}c`)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := r.Versions("s")
	if err != nil || len(vs) != 2 {
		t.Fatalf("Versions = %v err=%v", vs, err)
	}

	// Deleting the latest re-points latest at the survivor.
	if err := r.Delete("s", m2.Version); err != nil {
		t.Fatal(err)
	}
	latest, err := r.Manifest("s", "")
	if err != nil || latest.Version != m1.Version {
		t.Fatalf("latest after delete = %+v err=%v", latest, err)
	}

	if err := r.Delete("s", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Manifest("s", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Manifest after full delete = %v", err)
	}
	if err := r.Delete("s", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestNameAndRefValidation(t *testing.T) {
	r := open(t)
	for _, bad := range []string{"", ".", "../escape", "a/b", "a b", strings.Repeat("x", 200)} {
		if _, _, err := r.Register(bad, `a`); !errors.Is(err, ErrBadName) {
			t.Errorf("Register(%q) = %v, want ErrBadName", bad, err)
		}
	}
	if _, _, err := ParseRef("ok@ZZZ"); !errors.Is(err, ErrBadVersion) {
		t.Error("ParseRef accepted a malformed version")
	}
	name, version, err := ParseRef("ok@0123456789ab")
	if err != nil || name != "ok" || version != "0123456789ab" {
		t.Errorf("ParseRef = %q %q %v", name, version, err)
	}
	if _, _, err := r.Register("uncompilable", `x{[`); err == nil {
		t.Error("Register accepted an uncompilable expression")
	}
	if _, err := r.Manifest("missing", ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("Manifest(missing) = %v", err)
	}
}

func TestListSortedByName(t *testing.T) {
	r := open(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, _, err := r.Register(n, `x{a*}b`); err != nil {
			t.Fatal(err)
		}
	}
	l, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range l {
		names = append(names, m.Name)
	}
	if strings.Join(names, ",") != "alpha,mid,zeta" {
		t.Fatalf("List order = %v", names)
	}
}

// TestLegacyDFAFileIsHarmless covers registry directories written by
// older binaries, which kept a lazy-DFA cache sidecar
// (<version>.dfa) beside each artifact: such a version still lists,
// loads and deletes, and deleting it leaves no file of it behind.
func TestLegacyDFAFileIsHarmless(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old, _, err := r.Register("s", `x{a*}b`)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := r.Register("s", `x{a*}c`)
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "s", old.Version+".dfa")
	if err := os.WriteFile(legacy, []byte("SPDF legacy cache bytes"), 0o644); err != nil {
		t.Fatal(err)
	}

	if l, err := r.List(); err != nil || len(l) != 1 || l[0].Name != "s" {
		t.Fatalf("List = %+v, %v", l, err)
	}
	if vs, err := r.Versions("s"); err != nil || len(vs) != 2 {
		t.Fatalf("Versions = %+v, %v", vs, err)
	}
	sp, _, err := r.Load("s", old.Version)
	if err != nil {
		t.Fatalf("Load beside a legacy .dfa file: %v", err)
	}
	if !sp.Matches(spanners.NewDocument("aab")) {
		t.Fatal("loaded version does not match its own language")
	}

	if err := r.Delete("s", old.Version); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "s"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), old.Version) {
			t.Errorf("deleted version left %s behind", e.Name())
		}
	}
	if latest, err := r.Manifest("s", ""); err != nil || latest.Version != cur.Version {
		t.Fatalf("latest after delete = %+v, %v", latest, err)
	}
}
