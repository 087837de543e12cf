package analysis

import (
	"reflect"
	"strings"
	"testing"
)

// compilerGolden is verbatim `go build -trimpath -gcflags=-m` output
// (go1.24): a package header, inlining and parameter notes, a
// generated wrapper's column-less lines, and the heap escapes the
// hotpath analyzer reports.
const compilerGolden = `# valora/internal/lora
valora/internal/lora/memory.go:30:17: inlining call to strings.(*Builder).WriteString
valora/internal/lora/memory.go:30:17: "strings: illegal use of non-zero Builder copied by value" escapes to heap
valora/internal/lora/memory.go:32:14: ... argument does not escape
valora/internal/lora/memory.go:32:69: e.Deferred escapes to heap
<autogenerated>:1: inlining call to Shape.FLOPs
<autogenerated>:1: s.M escapes to heap
# valora/internal/analysis/testdata/src/hotpathtest
valora/internal/analysis/testdata/src/hotpathtest/hotpath.go:15:7: leaking param: r
valora/internal/analysis/testdata/src/hotpathtest/hotpath.go:16:7: func literal escapes to heap
valora/internal/analysis/testdata/src/hotpathtest/hotpath.go:64:14: v does not escape
valora/internal/analysis/testdata/src/hotpathtest/hotpath.go:102:6: moved to heap: ce
`

func TestParseCompilerOutputGolden(t *testing.T) {
	lines, err := parseCompilerOutput(compilerGolden)
	if err != nil {
		t.Fatal(err)
	}
	const mem = "valora/internal/lora/memory.go"
	const hot = "valora/internal/analysis/testdata/src/hotpathtest/hotpath.go"
	want := []compilerLine{
		{mem, 30, 17, "inlining call to strings.(*Builder).WriteString"},
		{mem, 30, 17, `"strings: illegal use of non-zero Builder copied by value" escapes to heap`},
		{mem, 32, 14, "... argument does not escape"},
		{mem, 32, 69, "e.Deferred escapes to heap"},
		{"", 0, 0, "inlining call to Shape.FLOPs"},
		{"", 0, 0, "s.M escapes to heap"},
		{hot, 15, 7, "leaking param: r"},
		{hot, 16, 7, "func literal escapes to heap"},
		{hot, 64, 14, "v does not escape"},
		{hot, 102, 6, "moved to heap: ce"},
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("parsed\n%v\nwant\n%v", lines, want)
	}
	var escapes []string
	for _, cl := range lines {
		if isHeapEscape(cl.msg) {
			escapes = append(escapes, cl.msg)
		}
	}
	wantEscapes := []string{
		`"strings: illegal use of non-zero Builder copied by value" escapes to heap`,
		"e.Deferred escapes to heap",
		"s.M escapes to heap",
		"func literal escapes to heap",
		"moved to heap: ce",
	}
	if !reflect.DeepEqual(escapes, wantEscapes) {
		t.Fatalf("heap escapes %q, want %q", escapes, wantEscapes)
	}
}

// TestParseCompilerOutputRejectsUnknownLines pins the fail-closed
// contract: a line that is neither a `# pkg` header nor a
// position-prefixed diagnostic is an error, not a silent pass.
func TestParseCompilerOutputRejectsUnknownLines(t *testing.T) {
	for _, bad := range []string{
		"go: downloading example.com/mod v1.0.0",
		"valora/internal/lora/memory.go:308 new(poolEntry) escapes to heap",
		"valora/internal/lora/memory.go: new(poolEntry) escapes to heap",
		"",
	} {
		out := "# valora/internal/lora\n" + bad + "\n"
		if _, err := parseCompilerOutput(out); err == nil || !strings.Contains(err.Error(), "unparseable") {
			t.Errorf("line %q: err = %v, want an unparseable-line error", bad, err)
		}
	}
}
