// Package registry is the persistent spanner registry: a versioned,
// file-backed store of named compiled spanners. Each registered
// expression is compiled once, serialized through the program codec
// (Spanner.MarshalBinary), and stored under a content-addressed
// version — the hex prefix of the SHA-256 of the artifact bytes — so
// re-registering an identical source is idempotent and clients can
// pin "name@version" knowing the bytes behind it never change.
//
// On-disk layout, one directory per name:
//
//	<dir>/<name>/<version>.bin   the artifact (envelope + program)
//	<dir>/<name>/<version>.json  the manifest (metadata, human-readable)
//	<dir>/<name>/latest          text file naming the current version
//
// Artifacts are written atomically (temp file + rename) and verified
// against their content address on every load, so a torn write or
// bit rot is detected, reported as a typed error, and never served.
// The service layer uses that contract to fall back to recompiling
// from the manifest's source instead of failing the request.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"spanners"
)

// VersionLen is the length of a registry version: the first 12 hex
// digits (48 bits) of the SHA-256 of the artifact bytes.
const VersionLen = 12

// Typed registry errors, matched with errors.Is.
var (
	ErrNotFound    = errors.New("registry: no such spanner")
	ErrBadName     = errors.New("registry: invalid spanner name")
	ErrBadVersion  = errors.New("registry: invalid version")
	ErrBadArtifact = errors.New("registry: artifact failed validation")
)

var (
	nameRE    = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,127}$`)
	versionRE = regexp.MustCompile(`^[0-9a-f]{12}$`)
)

// KindAlgebra marks a manifest whose Source is a spanner-algebra
// expression (internal/algebra syntax) rather than an RGX: the stored
// artifact is the composed compiled program, and the expression text
// is the source of truth for rebuilding it. An empty Kind is an RGX
// manifest — the only kind that existed before the field did.
const KindAlgebra = "algebra"

// Manifest is the JSON metadata stored alongside each artifact.
type Manifest struct {
	Name       string                `json:"name"`
	Version    string                `json:"version"`
	Kind       string                `json:"kind,omitempty"`
	Source     string                `json:"source"`
	Sequential bool                  `json:"sequential"`
	Vars       []string              `json:"vars"`
	Stats      spanners.ProgramStats `json:"program"`
	SizeBytes  int                   `json:"size_bytes"`
	CreatedAt  time.Time             `json:"created_at"`
}

// Ref renders the manifest's pinnable "name@version" reference.
func (m Manifest) Ref() string { return m.Name + "@" + m.Version }

// ParseRef splits "name" or "name@version" into its parts; version is
// empty when the reference is unpinned.
func ParseRef(ref string) (name, version string, err error) {
	name, version, _ = strings.Cut(ref, "@")
	if !nameRE.MatchString(name) {
		return "", "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if version != "" && !versionRE.MatchString(version) {
		return "", "", fmt.Errorf("%w: %q", ErrBadVersion, version)
	}
	return name, version, nil
}

// Version computes the content address of an artifact.
func Version(artifact []byte) string {
	sum := sha256.Sum256(artifact)
	return hex.EncodeToString(sum[:])[:VersionLen]
}

// Registry is a file-backed spanner store. All methods are safe for
// concurrent use within one process; cross-process writers should not
// share a directory.
type Registry struct {
	dir string
	mu  sync.Mutex
}

// Open creates (if needed) and opens a registry rooted at dir.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, errors.New("registry: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &Registry{dir: dir}, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

func (r *Registry) namePath(name string) string { return filepath.Join(r.dir, name) }

// Register compiles source, serializes it, and stores it under name.
// The returned created flag is false when that exact artifact version
// already existed (idempotent re-registration). The latest pointer
// moves to the registered version either way.
func (r *Registry) Register(name, source string) (Manifest, bool, error) {
	if !nameRE.MatchString(name) {
		return Manifest{}, false, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	sp, err := spanners.Compile(source)
	if err != nil {
		return Manifest{}, false, fmt.Errorf("registry: compile %q: %w", name, err)
	}
	artifact, err := sp.MarshalBinary()
	if err != nil {
		return Manifest{}, false, fmt.Errorf("registry: %w", err)
	}
	return r.put(name, "", source, sp, artifact)
}

// RegisterCompiled stores an already-composed spanner under name. The
// spanner's String() is recorded as the manifest source and its
// source mark as the manifest kind — callers persisting an algebra
// composition pass the pinned expression via
// Spanner.WithAlgebraSource, making the expression text the source of
// truth the service can replan from when the artifact is lost or
// corrupt. The spanner must run the compiled engine (MarshalBinary
// fails otherwise).
func (r *Registry) RegisterCompiled(name string, sp *spanners.Spanner) (Manifest, bool, error) {
	if !nameRE.MatchString(name) {
		return Manifest{}, false, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	artifact, err := sp.MarshalBinary()
	if err != nil {
		return Manifest{}, false, fmt.Errorf("registry: %w", err)
	}
	return r.put(name, kindOf(sp), sp.String(), sp, artifact)
}

// Put stores a pre-built artifact (an export from another registry)
// under name, validating it by decoding before anything touches disk.
func (r *Registry) Put(name string, artifact []byte) (Manifest, bool, error) {
	if !nameRE.MatchString(name) {
		return Manifest{}, false, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	sp, err := spanners.LoadCompiledSpanner(artifact)
	if err != nil {
		return Manifest{}, false, fmt.Errorf("%w: %v", ErrBadArtifact, err)
	}
	return r.put(name, kindOf(sp), sp.String(), sp, artifact)
}

// kindOf derives the manifest kind from the spanner's own source
// mark, which serialization preserves — so importing an exported
// algebra artifact keeps its kind, and rebuilds replan instead of
// misreading the expression as an RGX.
func kindOf(sp *spanners.Spanner) string {
	if sp.AlgebraSource() {
		return KindAlgebra
	}
	return ""
}

func (r *Registry) put(name, kind, source string, sp *spanners.Spanner, artifact []byte) (Manifest, bool, error) {
	version := Version(artifact)
	vars := make([]string, 0, len(sp.Vars()))
	for _, v := range sp.Vars() {
		vars = append(vars, string(v))
	}
	stats := sp.ProgramStats()
	stats.CompileNS = 0 // not a property of the artifact
	man := Manifest{
		Name:       name,
		Version:    version,
		Kind:       kind,
		Source:     source,
		Sequential: sp.Sequential(),
		Vars:       vars,
		Stats:      stats,
		SizeBytes:  len(artifact),
		CreatedAt:  time.Now().UTC().Truncate(time.Second),
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	dir := r.namePath(name)
	binPath := filepath.Join(dir, version+".bin")
	created := true
	if existing, err := r.readManifest(name, version); err == nil {
		man = existing // keep the original CreatedAt
		created = false
	}
	// Write (or repair) the artifact: an interrupted delete can leave
	// a manifest without its .bin, and re-registering the identical
	// source must make the version loadable again.
	if _, err := os.Stat(binPath); created || err != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return Manifest{}, false, fmt.Errorf("registry: %w", err)
		}
		if err := writeAtomic(binPath, artifact); err != nil {
			return Manifest{}, false, err
		}
	}
	if created {
		manBytes, err := json.MarshalIndent(man, "", "  ")
		if err != nil {
			return Manifest{}, false, fmt.Errorf("registry: %w", err)
		}
		if err := writeAtomic(filepath.Join(dir, version+".json"), append(manBytes, '\n')); err != nil {
			return Manifest{}, false, err
		}
	}
	if err := writeAtomic(filepath.Join(dir, "latest"), []byte(version+"\n")); err != nil {
		return Manifest{}, false, err
	}
	return man, created, nil
}

// writeAtomic writes data via a temp file + rename so readers never
// observe a half-written artifact.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// resolve maps an empty version to the name's latest pointer.
func (r *Registry) resolve(name, version string) (string, error) {
	if !nameRE.MatchString(name) {
		return "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if version != "" {
		if !versionRE.MatchString(version) {
			return "", fmt.Errorf("%w: %q", ErrBadVersion, version)
		}
		return version, nil
	}
	b, err := os.ReadFile(filepath.Join(r.namePath(name), "latest"))
	if err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return "", fmt.Errorf("registry: %w", err)
	}
	v := strings.TrimSpace(string(b))
	if !versionRE.MatchString(v) {
		return "", fmt.Errorf("%w: latest pointer of %q is %q", ErrBadVersion, name, v)
	}
	return v, nil
}

func (r *Registry) readManifest(name, version string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(r.namePath(name), version+".json"))
	if err != nil {
		if os.IsNotExist(err) {
			return Manifest{}, fmt.Errorf("%w: %s@%s", ErrNotFound, name, version)
		}
		return Manifest{}, fmt.Errorf("registry: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: manifest of %s@%s: %v", ErrBadArtifact, name, version, err)
	}
	return m, nil
}

// Manifest returns the metadata of name at version ("" = latest).
func (r *Registry) Manifest(name, version string) (Manifest, error) {
	v, err := r.resolve(name, version)
	if err != nil {
		return Manifest{}, err
	}
	return r.readManifest(name, v)
}

// Artifact returns the raw artifact bytes of name at version (""
// = latest), verified against their content address.
func (r *Registry) Artifact(name, version string) ([]byte, Manifest, error) {
	v, err := r.resolve(name, version)
	if err != nil {
		return nil, Manifest{}, err
	}
	man, err := r.readManifest(name, v)
	if err != nil {
		return nil, Manifest{}, err
	}
	b, err := os.ReadFile(filepath.Join(r.namePath(name), v+".bin"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, man, fmt.Errorf("%w: artifact of %s@%s", ErrNotFound, name, v)
		}
		return nil, man, fmt.Errorf("registry: %w", err)
	}
	if got := Version(b); got != v {
		return nil, man, fmt.Errorf("%w: %s@%s content hash is %s", ErrBadArtifact, name, v, got)
	}
	return b, man, nil
}

// Load decodes the stored artifact of name at version ("" = latest)
// into a ready-to-evaluate spanner — no recompilation. Decode
// failures surface as ErrBadArtifact; the caller can fall back to
// compiling the manifest's Source.
func (r *Registry) Load(name, version string) (*spanners.Spanner, Manifest, error) {
	b, man, err := r.Artifact(name, version)
	if err != nil {
		return nil, man, err
	}
	sp, err := spanners.LoadCompiledSpanner(b)
	if err != nil {
		return nil, man, fmt.Errorf("%w: %s@%s: %v", ErrBadArtifact, man.Name, man.Version, err)
	}
	return sp, man, nil
}

// List returns the latest manifest of every registered name, sorted
// by name. Names whose manifests are unreadable are skipped.
func (r *Registry) List() ([]Manifest, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		if !e.IsDir() || !nameRE.MatchString(e.Name()) {
			continue
		}
		if m, err := r.Manifest(e.Name(), ""); err == nil {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Versions returns every stored version of name, newest first.
func (r *Registry) Versions(name string) ([]Manifest, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	entries, err := os.ReadDir(r.namePath(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, fmt.Errorf("registry: %w", err)
	}
	var out []Manifest
	for _, e := range entries {
		v, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || !versionRE.MatchString(v) {
			continue
		}
		if m, err := r.readManifest(name, v); err == nil {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.After(out[j].CreatedAt)
		}
		return out[i].Version > out[j].Version
	})
	return out, nil
}

// Delete removes one version of name, or every version (and the name
// itself) when version is empty. Deleting the latest version re-points
// the latest file at the newest remaining one.
func (r *Registry) Delete(name, version string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dir := r.namePath(name)
	if version == "" {
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return os.RemoveAll(dir)
	}
	if !versionRE.MatchString(version) {
		return fmt.Errorf("%w: %q", ErrBadVersion, version)
	}
	// Manifest first: listings are keyed on .json, so once it is gone
	// the version has disappeared even if removing the .bin fails (an
	// orphaned .bin is invisible; an orphaned .json would advertise an
	// unloadable version).
	if err := os.Remove(filepath.Join(dir, version+".json")); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s@%s", ErrNotFound, name, version)
		}
		return fmt.Errorf("registry: %w", err)
	}
	os.Remove(filepath.Join(dir, version+".bin"))
	// Older binaries wrote a lazy-DFA cache sidecar beside each
	// artifact; nothing reads it any more, but it goes with its version.
	os.Remove(filepath.Join(dir, version+".dfa"))
	remaining, err := r.Versions(name)
	if err != nil || len(remaining) == 0 {
		return os.RemoveAll(dir)
	}
	return writeAtomic(filepath.Join(dir, "latest"), []byte(remaining[0].Version+"\n"))
}
