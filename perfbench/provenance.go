package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// provenance stamps a report with where and on what code it was
// measured: the program's own capture (host, CPU model, CPU count,
// GOMAXPROCS, Go version, load averages) plus the source identity. The
// benchmark may run in a checkout that is not a git repository, so the
// commit is read from .git when present and a hash of the Go sources is
// always recorded.
type provenance struct {
	obs.Provenance
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func captureProvenance(root string) provenance {
	return provenance{
		Provenance: obs.Capture(obs.Nanotime()),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
	}
}

// gitCommit resolves HEAD from the .git directory without running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown (unresolved " + ref + ")"
}

// sourceHash is the SHA-256 over the relative path and contents of
// every go.mod and .go file in the checkout, in path order.
func sourceHash(root string) string {
	var paths []string
	// Unreadable entries are skipped: the hash identifies the sources it
	// could read, and the walk itself never returns an error.
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
