package fela

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameWhatExists: every command that README, DESIGN, EXPERIMENTS
// and bench/README show in code (a fenced block or an inline span)
// names only what exists: a `make` target the Makefile defines, flags
// after a fela* binary that its cmd/<binary>/main.go defines, and a
// felabench -experiment value in felabench's experimentNames.
func TestDocsNameWhatExists(t *testing.T) {
	targets := makeTargets(t)
	flags, experiments := cmdFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range docCommands(string(data)) {
			words := strings.Fields(cmd)
			for len(words) > 0 && strings.Contains(words[0], "=") {
				words = words[1:] // an environment assignment
			}
			if len(words) >= 3 && words[0] == "go" && words[1] == "run" {
				words = words[2:]
			}
			if len(words) == 0 {
				continue
			}
			bin, args := path.Base(words[0]), words[1:]
			if bin == "make" {
				for _, a := range args {
					if a = strings.Trim(a, "[]"); a != "" && !strings.HasPrefix(a, "-") && !strings.Contains(a, "=") && !targets[a] {
						t.Errorf("%s: `%s` names make target %q, which the Makefile lacks", doc, cmd, a)
					}
				}
				continue
			}
			defined, ok := flags[bin]
			if !ok {
				continue
			}
			for i, a := range args {
				a = strings.Trim(a, "[](),")
				if len(a) < 2 || a[0] != '-' || !startsWithLetter(strings.TrimLeft(a, "-")) {
					continue
				}
				name, value, hasValue := strings.Cut(strings.TrimLeft(a, "-"), "=")
				if !defined[name] {
					t.Errorf("%s: `%s` passes -%s, which %s does not define", doc, cmd, name, bin)
				}
				if bin == "felabench" && name == "experiment" {
					if !hasValue && i+1 < len(args) {
						value = strings.Trim(args[i+1], "[](),")
					}
					if !slices.Contains(experiments, value) {
						t.Errorf("%s: `%s` runs experiment %q, which felabench does not have", doc, cmd, value)
					}
				}
			}
		}
	}
}

func startsWithLetter(s string) bool {
	return s != "" && ('a' <= s[0] && s[0] <= 'z' || 'A' <= s[0] && s[0] <= 'Z')
}

var (
	inlineCode   = regexp.MustCompile("`([^`]+)`")
	shellBetween = regexp.MustCompile(`&&|\|\||[;|&]`)
	shellComment = regexp.MustCompile(`(^|\s)#.*$`)
)

// docCommands returns the shell commands in a markdown text: each line
// of its fenced code blocks, continuation lines joined and comments cut,
// and each inline code span, split at ;, &, && and pipes.
func docCommands(doc string) []string {
	var spans []string
	fenced, joined := false, ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
				spans = append(spans, m[1])
			}
			continue
		}
		line = shellComment.ReplaceAllString(line, "")
		if strings.HasSuffix(line, `\`) {
			joined += strings.TrimSuffix(line, `\`) + " "
			continue
		}
		spans = append(spans, joined+line)
		joined = ""
	}
	var cmds []string
	for _, s := range spans {
		for _, c := range shellBetween.Split(s, -1) {
			if c = strings.TrimSpace(c); c != "" {
				cmds = append(cmds, c)
			}
		}
	}
	return cmds
}

// makeTargets returns the targets the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`).FindAllStringSubmatch(string(data), -1) {
		targets[m[1]] = true
	}
	return targets
}

// cmdFlags returns, for each cmd/<binary>/main.go, the names of the
// flags it defines with the flag package, and felabench's
// experimentNames.
func cmdFlags(t *testing.T) (flags map[string]map[string]bool, experiments []string) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go (%v)", err)
	}
	flags = map[string]map[string]bool{}
	for _, file := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(file))
		flags[bin] = map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// flag.String(name, …) and flag.StringVar(&v, name, …).
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
					return true
				}
				i := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					i = 1
				}
				if i < len(n.Args) {
					if name, ok := stringLit(n.Args[i]); ok {
						flags[bin][name] = true
					}
				}
			case *ast.ValueSpec:
				if bin == "felabench" && len(n.Names) == 1 && n.Names[0].Name == "experimentNames" {
					for _, e := range n.Values[0].(*ast.CompositeLit).Elts {
						if name, ok := stringLit(e); ok {
							experiments = append(experiments, name)
						}
					}
				}
			}
			return true
		})
	}
	if len(experiments) == 0 {
		t.Fatal("no experimentNames in cmd/felabench/main.go")
	}
	return flags, experiments
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
