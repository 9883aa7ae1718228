package april

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"april/internal/bench"
	"april/internal/mult"
	"april/internal/snapshot"
)

// checkpointMachine is a small ALEWIFE machine stopped mid-run.
func checkpointMachine(t *testing.T) (*checkpointer, string, func() error) {
	t.Helper()
	o := Options{Processors: 4, Alewife: &AlewifeOptions{}, CheckpointEvery: 1000, CheckpointDir: t.TempDir()}
	m, _, err := o.build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mult.Compile(bench.QueensSource(5), o.mode(), m.StaticHeap())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if done, err := m.RunWindow(1000); err != nil || done {
		t.Fatalf("RunWindow = %v, %v", done, err)
	}
	ck, err := newCheckpointer(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(o.CheckpointDir, fmt.Sprintf("ckpt-%012d.img", m.Now()))
	return ck, path, func() error { return ck.maybeWrite(m) }
}

func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestCheckpointWriteDurable: a checkpoint lands whole under its final
// name, opens as an image, and leaves no temporary file behind.
func TestCheckpointWriteDurable(t *testing.T) {
	ck, path, write := checkpointMachine(t)
	if err := write(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapshot.Open(img); err != nil {
		t.Errorf("written checkpoint does not open: %v", err)
	}
	if tmps := tmpFiles(t, ck.dir); len(tmps) != 0 {
		t.Errorf("temporary files left: %v", tmps)
	}
}

// TestCheckpointWriteFailureCleansUp: when the rename into place fails
// (the name is taken by a non-empty directory), the error comes back
// and the temporary file is gone.
func TestCheckpointWriteFailureCleansUp(t *testing.T) {
	ck, path, write := checkpointMachine(t)
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := write(); err == nil {
		t.Fatal("checkpoint over a non-empty directory succeeded")
	}
	if tmps := tmpFiles(t, ck.dir); len(tmps) != 0 {
		t.Errorf("temporary files left after a failed checkpoint: %v", tmps)
	}
	if len(ck.files) != 0 {
		t.Errorf("failed checkpoint retained as %v", ck.files)
	}
}
