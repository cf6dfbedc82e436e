package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// machine identifies what a result was measured on and with which code,
// so numbers from different sessions can be compared.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, "unknown"
	// outside a git checkout; SourceSHA256 always identifies the code: a
	// digest over every .go, go.mod and go.sum file under the root.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func describeMachine(root string) machine {
	m := machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		settings := map[string]string{}
		for _, s := range bi.Settings {
			settings[s.Key] = s.Value
		}
		if rev := settings["vcs.revision"]; rev != "" {
			m.Commit = rev
			if settings["vcs.modified"] == "true" {
				m.Commit += "+dirty"
			}
		}
	}
	m.SourceSHA256 = sourceDigest(root)
	return m
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, in path
// order, skipping hidden directories (.git, .bench_build).
func sourceDigest(root string) string {
	var paths []string
	// The walk callback never returns an error, so neither does WalkDir.
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		n := d.Name()
		if d.Type().IsRegular() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
