package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// recordRefs rewrites the correctness references from the checkout's
// program: the full cgsweep grid output and the observables of every
// timing cell. Run it only at a commit whose outputs are known good
// (the references in the repository were recorded at the commit that
// added the benchmark), then rebuild: the references are embedded.
func recordRefs(root, bin string) error {
	cmd := exec.Command(filepath.Join(bin, "cgsweep"), "-workers", strconv.Itoa(runtime.NumCPU()))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("cgsweep: %w", err)
	}
	dir := filepath.Join(root, "perfbench", "ref")
	if err := os.WriteFile(filepath.Join(dir, "grid.txt"), out.Bytes(), 0o644); err != nil {
		return err
	}
	ref := map[string]observables{}
	for _, c := range timingCells() {
		o, _, _ := runCold(c, newTracer(false), 0)
		ref[c.name()] = observe(o)
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "timing.json"), append(b, '\n'), 0o644)
}
