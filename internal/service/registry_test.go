package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spanners/internal/registry"
)

// sellerExpr is shared with service_test.go.

func newRegistryService(t *testing.T, dir string) *Service {
	t.Helper()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Registry: reg})
}

func TestNamedSpannerServesWithoutCompileMisses(t *testing.T) {
	dir := t.TempDir()
	svc := newRegistryService(t, dir)
	man, created, err := svc.RegisterSpanner("seller", sellerExpr)
	if err != nil || !created {
		t.Fatalf("RegisterSpanner: created=%v err=%v", created, err)
	}

	// A second service over the same directory simulates a process
	// restart: pre-warm, then serve a pinned reference.
	svc2 := newRegistryService(t, dir)
	if n, err := svc2.Prewarm(); err != nil || n != 1 {
		t.Fatalf("Prewarm = %d, %v", n, err)
	}

	ctx := context.Background()
	doc := "Seller: Anna, 12 Hill St\n"
	for _, ref := range []string{man.Ref(), "seller"} {
		res, err := svc2.Extract(ctx, Query{Spanner: ref}, doc)
		if err != nil {
			t.Fatalf("Extract(%q): %v", ref, err)
		}
		if len(res) != 1 || decodeResult(t, res[0])["x"].Content != "Anna" {
			t.Fatalf("Extract(%q) = %v", ref, res)
		}
	}

	st := svc2.Stats()
	if st.Spanners.Misses != 0 {
		t.Fatalf("compile-cache misses = %d after pre-warmed named extraction, want 0", st.Spanners.Misses)
	}
	if st.Registry.Prewarmed != 1 || st.Registry.ArtifactLoads != 1 {
		t.Fatalf("registry stats = %+v, want 1 prewarmed artifact load", st.Registry)
	}
	if st.Registry.NamedHits < 1 {
		t.Fatalf("named hits = %d, want >= 1", st.Registry.NamedHits)
	}
	if st.Registry.SourceFallbacks != 0 {
		t.Fatalf("source fallbacks = %d, want 0", st.Registry.SourceFallbacks)
	}

	// The registering service compiled the source itself, so ITS
	// expression cache is seeded: the same source inline is a hit.
	if _, err := svc.Extract(ctx, Query{Expr: sellerExpr}, doc); err != nil {
		t.Fatal(err)
	}
	if cs := svc.Stats().Spanners; cs.Misses != 0 || cs.Hits < 1 {
		t.Fatalf("inline query on the registering service: %+v, want a hit and no misses", cs)
	}

	// The restarted service only decoded the artifact: a decoded
	// program's embedded source string is unverified, so it must NOT
	// seed the expression cache (a crafted artifact could otherwise
	// poison unrelated inline queries). Inline compiles fresh here.
	if _, err := svc2.Extract(ctx, Query{Expr: sellerExpr}, doc); err != nil {
		t.Fatal(err)
	}
	if cs := svc2.Stats().Spanners; cs.Misses != 1 {
		t.Fatalf("inline query after artifact pre-warm: %+v, want one honest miss", cs)
	}
}

func TestNamedSpannerPinnedVersionStable(t *testing.T) {
	dir := t.TempDir()
	svc := newRegistryService(t, dir)
	m1, _, err := svc.RegisterSpanner("q", `x{a+}b*`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RegisterSpanner("q", `a*y{b+}`); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Unpinned resolves to the newest registration…
	res, err := svc.Extract(ctx, Query{Spanner: "q"}, "ab")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || decodeResult(t, res[0])["y"].Content != "b" {
		t.Fatalf("latest q = %v, want y=b", res)
	}
	// …while the pin still serves the old artifact, and does not
	// disturb the latest pointer.
	res, err = svc.Extract(ctx, Query{Spanner: "q@" + m1.Version}, "ab")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || decodeResult(t, res[0])["x"].Content != "a" {
		t.Fatalf("pinned q@%s = %v, want x=a", m1.Version, res)
	}
	res, err = svc.Extract(ctx, Query{Spanner: "q"}, "ab")
	if err != nil || len(res) != 1 || decodeResult(t, res[0])["y"].Content != "b" {
		t.Fatalf("latest after pinned lookup = %v err=%v", res, err)
	}
}

func TestCorruptArtifactFallsBackToSource(t *testing.T) {
	dir := t.TempDir()
	svc := newRegistryService(t, dir)
	man, _, err := svc.RegisterSpanner("seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the artifact on disk, then restart.
	binPath := filepath.Join(dir, "seller", man.Version+".bin")
	b, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(binPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := newRegistryService(t, dir)
	if n, err := svc2.Prewarm(); err != nil || n != 1 {
		t.Fatalf("Prewarm over corrupt artifact = %d, %v (want recompile fallback)", n, err)
	}
	res, err := svc2.Extract(context.Background(), Query{Spanner: man.Ref()}, "Seller: Bo, 1 Rd\n")
	if err != nil || len(res) != 1 {
		t.Fatalf("extraction after fallback = %v, %v", res, err)
	}
	st := svc2.Stats()
	if st.Registry.SourceFallbacks != 1 || st.Registry.ArtifactLoads != 0 {
		t.Fatalf("registry stats = %+v, want exactly one source fallback", st.Registry)
	}
	if st.Spanners.Misses != 1 {
		t.Fatalf("compile misses = %d, want 1 (the recompile)", st.Spanners.Misses)
	}
}

// TestMissingArtifactFallsBackToSource: a manifest whose .bin file
// vanished (interrupted delete, partial sync) must still serve via
// the recompile-from-source fallback, like a corrupt artifact does.
func TestMissingArtifactFallsBackToSource(t *testing.T) {
	dir := t.TempDir()
	svc := newRegistryService(t, dir)
	man, _, err := svc.RegisterSpanner("seller", sellerExpr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "seller", man.Version+".bin")); err != nil {
		t.Fatal(err)
	}
	svc2 := newRegistryService(t, dir)
	if n, err := svc2.Prewarm(); err != nil || n != 1 {
		t.Fatalf("Prewarm with missing .bin = %d, %v", n, err)
	}
	res, err := svc2.Extract(context.Background(), Query{Spanner: man.Ref()}, "Seller: Bo, 1 Rd\n")
	if err != nil || len(res) != 1 {
		t.Fatalf("extraction after missing-bin fallback = %v, %v", res, err)
	}
	if st := svc2.Stats(); st.Registry.SourceFallbacks != 1 {
		t.Fatalf("registry stats = %+v, want one source fallback", st.Registry)
	}
}

func TestRegistryQueryValidation(t *testing.T) {
	ctx := context.Background()

	// Without a registry, spanner references fail cleanly.
	bare := New(Config{})
	if _, err := bare.Extract(ctx, Query{Spanner: "x"}, "a"); !errors.Is(err, ErrNoRegistry) {
		t.Fatalf("no registry: %v", err)
	}
	if _, err := bare.Prewarm(); !errors.Is(err, ErrNoRegistry) {
		t.Fatalf("Prewarm without registry: %v", err)
	}

	svc := newRegistryService(t, t.TempDir())
	if _, err := svc.Extract(ctx, Query{Spanner: "missing"}, "a"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("missing name: %v", err)
	}
	if _, err := svc.Extract(ctx, Query{Spanner: "../etc"}, "a"); !errors.Is(err, registry.ErrBadName) {
		t.Fatalf("traversal name: %v", err)
	}
	// Setting two query fields is rejected.
	if _, err := svc.Extract(ctx, Query{Spanner: "a", Expr: "b"}, "a"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("two fields: %v", err)
	}
}

func TestDeleteSpannerDropsResolution(t *testing.T) {
	svc := newRegistryService(t, t.TempDir())
	man, _, err := svc.RegisterSpanner("tmp", `x{a*}b`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Extract(ctx, Query{Spanner: "tmp"}, "ab"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DeleteSpanner("tmp", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Extract(ctx, Query{Spanner: "tmp"}, "ab"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	if _, err := svc.Extract(ctx, Query{Spanner: man.Ref()}, "ab"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("pinned after delete: %v", err)
	}
}
