package service

import (
	"errors"
	"fmt"
	"time"

	"spanners"
	"spanners/internal/obs"
	"spanners/internal/registry"
)

// This file is the service side of the persistent spanner registry:
// named lookup for queries that pin "name@version" instead of
// shipping an inline expression, startup pre-warming so a restarted
// process serves stored artifacts with zero compile-cache misses, and
// the mutating operations the HTTP layer exposes — routed through the
// service so the in-memory indexes stay coherent with the disk store.

// ErrNoRegistry is returned for registry operations on a service
// configured without one.
var ErrNoRegistry = errors.New("service: no registry configured")

// Registry returns the backing registry, or nil.
func (s *Service) Registry() *registry.Registry { return s.reg }

// install records a resolved named spanner in the in-memory indexes.
// markLatest moves the in-memory latest pointer — set only when the
// registry says this version is current, never for a pinned lookup of
// an older version. seedExpr additionally seeds the inline-expression
// LRU under the manifest's source — set only for spanners this
// process itself compiled from that source: a decoded artifact's
// embedded source string is unverified (nothing proves the program
// tables implement it), and keying the expression cache on it would
// let a crafted artifact poison unrelated inline queries.
func (s *Service) install(man registry.Manifest, sp *spanners.Spanner, markLatest, seedExpr bool) {
	s.namedMu.Lock()
	s.named[man.Ref()] = sp
	if markLatest {
		s.latest[man.Name] = man.Version
	}
	s.namedMu.Unlock()
	s.trackDFA(sp)
	if seedExpr && man.Source != "" && man.Kind == "" {
		s.spanners.put(exprKeyPrefix+man.Source, sp)
	}
}

// loadNamed materializes name@version from the registry: decode the
// stored artifact, or — when the artifact is unusable (corrupt,
// truncated, or its .bin file missing while the manifest survives) —
// rebuild from the manifest's source so storage damage degrades to a
// slower start instead of a failed request: RGX manifests recompile,
// algebra manifests replan their pinned expression. The returned
// fromSource flag reports which path produced the spanner.
func (s *Service) loadNamed(name, version string) (*spanners.Spanner, registry.Manifest, bool, error) {
	start := time.Now()
	defer func() { s.obs.stage(obs.StageRegistryLoad, time.Since(start)) }()
	sp, man, err := s.reg.Load(name, version)
	if err == nil {
		s.artifactLoads.Add(1)
		return sp, man, false, nil
	}
	man, merr := s.reg.Manifest(name, version)
	if merr != nil || man.Source == "" {
		return nil, man, false, err
	}
	var cerr error
	if man.Kind == registry.KindAlgebra {
		sp, cerr = s.AlgebraSpanner(man.Source)
	} else {
		sp, cerr = s.Spanner(man.Source)
	}
	if cerr != nil {
		return nil, man, false, fmt.Errorf("%v; rebuild-from-source fallback: %w", err, cerr)
	}
	s.fallbacks.Add(1)
	return sp, man, true, nil
}

// namedCall deduplicates concurrent cold lookups of one reference, in
// the spirit of the expression LRU's per-entry sync.Once: a burst of
// requests for the same not-yet-resident name decodes the artifact
// exactly once.
type namedCall struct {
	done chan struct{}
	sp   *spanners.Spanner
	err  error
}

// NamedSpanner resolves a registry reference — "name" for the latest
// version, "name@version" for a pinned one — to a ready spanner.
// Resolved artifacts stay resident, so repeated references cost one
// map lookup and never touch the compile pipeline.
func (s *Service) NamedSpanner(ref string) (*spanners.Spanner, error) {
	sp, _, err := s.namedSpannerTracked(ref)
	return sp, err
}

// namedSpannerTracked is NamedSpanner reporting whether this call hit
// the registry (cold load) rather than the resident index — the
// signal the observed compile path uses to label its span
// "registry-load" vs "cache-lookup".
func (s *Service) namedSpannerTracked(ref string) (*spanners.Spanner, bool, error) {
	if s.reg == nil {
		return nil, false, ErrNoRegistry
	}
	name, version, err := registry.ParseRef(ref)
	if err != nil {
		return nil, false, err
	}
	pinned := version != ""
	s.namedMu.Lock()
	if !pinned {
		version = s.latest[name] // may still be "", resolved from disk below
	}
	if version != "" {
		if sp, ok := s.named[name+"@"+version]; ok {
			s.namedMu.Unlock()
			s.namedHits.Add(1)
			return sp, false, nil
		}
	}
	// Cold: join an in-flight load of the same reference or start one.
	key := name + "@" + version
	if call, ok := s.loading[key]; ok {
		s.namedMu.Unlock()
		<-call.done
		return call.sp, false, call.err
	}
	call := &namedCall{done: make(chan struct{})}
	s.loading[key] = call
	s.namedMu.Unlock()

	sp, man, _, err := s.loadNamed(name, version)
	if err == nil {
		s.install(man, sp, !pinned, false)
	}
	call.sp, call.err = sp, err
	s.namedMu.Lock()
	delete(s.loading, key)
	s.namedMu.Unlock()
	close(call.done)
	return sp, true, err
}

// Prewarm loads the latest version of every registered spanner into
// the named index. It is called once at startup, before traffic:
// afterwards a pinned extraction is served with zero compile-cache
// misses. Entries whose artifacts fail to decode are recompiled from
// source (counted in SourceFallbacks); entries unusable even then are
// skipped and reported in the joined error, without aborting the rest
// of the warm-up.
func (s *Service) Prewarm() (int, error) {
	if s.reg == nil {
		return 0, ErrNoRegistry
	}
	mans, err := s.reg.List()
	if err != nil {
		return 0, err
	}
	var errs []error
	loaded := 0
	for _, man := range mans {
		sp, got, _, err := s.loadNamed(man.Name, man.Version)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		s.install(got, sp, true, false)
		s.prewarmed.Add(1)
		loaded++
	}
	return loaded, errors.Join(errs...)
}

// RegisterSpanner compiles source, persists it under name, and makes
// it immediately resolvable. The stored artifact is read back and
// decoded before the call returns, so registration also verifies the
// round trip. Because this process compiled the artifact from source
// itself, the expression cache is seeded too — inline queries for the
// same source become hits.
func (s *Service) RegisterSpanner(name, source string) (registry.Manifest, bool, error) {
	if s.reg == nil {
		return registry.Manifest{}, false, ErrNoRegistry
	}
	man, created, err := s.reg.Register(name, source)
	if err != nil {
		return registry.Manifest{}, false, err
	}
	sp, man, _, err := s.loadNamed(man.Name, man.Version)
	if err != nil {
		return man, created, err
	}
	s.install(man, sp, true, true)
	return man, created, nil
}

// DeleteSpanner removes name@version (or every version when version
// is empty) from the registry and the in-memory indexes.
func (s *Service) DeleteSpanner(name, version string) error {
	if s.reg == nil {
		return ErrNoRegistry
	}
	if err := s.reg.Delete(name, version); err != nil {
		return err
	}
	s.namedMu.Lock()
	defer s.namedMu.Unlock()
	if version == "" {
		for ref := range s.named {
			if n, _, err := registry.ParseRef(ref); err == nil && n == name {
				delete(s.named, ref)
			}
		}
		for ref := range s.leaves {
			if n, _, err := registry.ParseRef(ref); err == nil && n == name {
				delete(s.leaves, ref)
			}
		}
		delete(s.latest, name)
		return nil
	}
	delete(s.named, name+"@"+version)
	delete(s.leaves, name+"@"+version)
	if s.latest[name] == version {
		delete(s.latest, name) // re-resolved from disk on next lookup
	}
	return nil
}
