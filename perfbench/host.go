package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo names the machine and build a result was measured on. Results
// from different hosts are not comparable; this block says which host.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Width      int    `json:"closed_loop_width"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHost(root string, width int) hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Width:      width,
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
	}
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d width=%d go=%s commit=%s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Width, h.GoVersion, h.Commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit returns the commit checked out at root, or "unknown" when root
// is not a git checkout. It asks root's own .git only, never a repository
// that happens to enclose root.
func gitCommit(root string) string {
	out, err := exec.Command("git", "--git-dir", filepath.Join(root, ".git"), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
