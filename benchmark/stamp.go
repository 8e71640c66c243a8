package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies the host and the build a result was measured on.
type stamp struct {
	NProc            int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs_bench"`
	DaemonGOMAXPROCS int    `json:"gomaxprocs_daemon"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Dirty            string `json:"dirty"`
	SourceSHA256     string `json:"source_sha256"`
}

func newStamp(daemonProcs int) stamp {
	s := stamp{
		NProc:            runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: daemonProcs,
		CPUModel:         cpuModel(),
		GoVersion:        runtime.Version(),
		Commit:           "unknown",
		Dirty:            "unknown",
		SourceSHA256:     sourceDigest("."),
	}
	// A git checkout names its commit; an exported tree has only the
	// source digest.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			s.Dirty = "false"
			if len(strings.TrimSpace(string(st))) > 0 {
				s.Dirty = "true"
			}
		}
	}
	return s
}

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

// sourceDigest hashes every Go source and go.mod file under root (paths
// and contents, in sorted order), skipping hidden directories: two trees
// with the same digest build the same programs.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
