package grid

import (
	"context"
	"errors"
	"os"
	"testing"

	"reqsched/internal/trace"
)

// TestPipeTransportOverlongLine spawns a worker (this test binary, see
// TestMain) that prints a heartbeat and then a line longer than
// trace.MaxLineBytes: the heartbeat arrives, and the long line reaches the
// supervisor as an error wrapping *trace.LineTooLong at the line's offset.
func TestPipeTransportOverlongLine(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tr := &PipeTransport{Cmd: []string{exe}, Env: []string{"GRID_TEST_WORKER=longline"}}
	c, err := tr.Dial(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := <-c.Lines()
	if first.err != nil || first.out.HB != "x" {
		t.Fatalf("first line: %+v, want the heartbeat", first)
	}
	second, ok := <-c.Lines()
	if !ok {
		t.Fatal("stream ended without reporting the overlong line")
	}
	var long *trace.LineTooLong
	if !errors.As(second.err, &long) {
		t.Fatalf("overlong line reported as %v, want a *trace.LineTooLong", second.err)
	}
	if want := int64(len(`{"hb":"x"}` + "\n")); long.Offset != want {
		t.Fatalf("overlong line at offset %d, want %d", long.Offset, want)
	}
}
