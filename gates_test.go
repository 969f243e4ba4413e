package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGatesNameTests holds every go test command written down in
// scripts/verify.sh and in the bash blocks of the verify skill's
// SKILL.md to tests that exist. go test passes a -run pattern that
// matches nothing with "no tests to run", so a renamed test would
// otherwise drop out of its gate unnoticed. Each top-level |
// alternative of each -run, -bench and -fuzz pattern must match at least
// one function in the command's packages: Test, Fuzz and Example
// functions for -run and -fuzz, Benchmark functions for -bench. As in go
// test, only the part before the first / names a top-level function.
// '^$' (run nothing) is the one pattern exempt.
func TestGatesNameTests(t *testing.T) {
	funcs := testFuncs(t)
	verify, err := os.ReadFile("scripts/verify.sh")
	if err != nil {
		t.Fatal(err)
	}
	skill, err := os.ReadFile(".claude/skills/verify/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, source := range []struct {
		name    string
		scripts []string
	}{
		{"scripts/verify.sh", []string{string(verify)}},
		{"SKILL.md", bashBlocks(string(skill))},
	} {
		src, scripts := source.name, source.scripts
		commands, patterns := 0, 0
		for _, script := range scripts {
			for _, line := range strings.Split(strings.ReplaceAll(script, "\\\n", " "), "\n") {
				for _, cmd := range goTestCommands(line) {
					commands++
					for _, p := range cmd.patterns {
						patterns++
						checkPattern(t, src, line, cmd.pkgs, p, funcs)
					}
				}
			}
		}
		if commands == 0 {
			t.Errorf("%s: no go test command found", src)
		}
		t.Logf("%s: %d go test commands, %d patterns", src, commands, patterns)
	}
}

// testFuncs maps each directory (slash-separated, relative to the repo
// root) to the top-level functions of its _test.go files, whatever
// their build tags.
func testFuncs(t *testing.T) map[string][]string {
	funcs := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[dir] = append(funcs[dir], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// bashBlocks returns the bodies of markdown's ```bash fences.
func bashBlocks(md string) []string {
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(md, "\n") {
		switch {
		case !in && strings.TrimSpace(line) == "```bash":
			in, cur = true, nil
		case in && strings.TrimSpace(line) == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	return blocks
}

// gateCommand is one go test invocation: its package arguments and
// its patterns, each with the flag that carries it.
type gateCommand struct {
	pkgs     []string
	patterns []gatePattern
}

type gatePattern struct {
	flag, expr string
}

// valueFlags are the go test flags used in the gates that take their
// value as the next word.
var valueFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "count": true,
	"benchtime": true, "fuzztime": true, "parallel": true, "timeout": true, "cpu": true,
}

// goTestCommands finds the go test commands on one shell line.
func goTestCommands(line string) []gateCommand {
	var cmds []gateCommand
	words := shellWords(line)
	for i := 0; i+1 < len(words); i++ {
		if words[i] != "go" || words[i+1] != "test" {
			continue
		}
		var cmd gateCommand
		for i += 2; i < len(words) && words[i] != ""; i++ {
			w := words[i]
			if !strings.HasPrefix(w, "-") {
				if strings.HasPrefix(w, ".") {
					cmd.pkgs = append(cmd.pkgs, w)
				}
				continue
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !hasValue && valueFlags[name] && i+1 < len(words) {
				i++
				value = words[i]
			}
			if name == "run" || name == "bench" || name == "fuzz" {
				cmd.patterns = append(cmd.patterns, gatePattern{name, value})
			}
		}
		if len(cmd.pkgs) == 0 {
			cmd.pkgs = []string{"."}
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// shellWords splits a shell line into words, honouring single and
// double quotes. A command separator (; | &) becomes an empty word, and
// an unquoted # ends the line.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	inWord := false
	flush := func() {
		if inWord {
			words = append(words, cur.String())
			cur.Reset()
			inWord = false
		}
	}
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			flush()
		case r == ';' || r == '|' || r == '&':
			flush()
			words = append(words, "")
		case r == '#' && !inWord:
			flush()
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	flush()
	return words
}

// checkPattern fails the test for each alternative of p that matches no
// function of the right kind in pkgs.
func checkPattern(t *testing.T, src, line string, pkgs []string, p gatePattern, funcs map[string][]string) {
	t.Helper()
	if p.expr == "^$" {
		return
	}
	prefixes := []string{"Test", "Fuzz", "Example"}
	if p.flag == "bench" {
		prefixes = []string{"Benchmark"}
	}
	var names []string
	for _, pkg := range pkgs {
		for dir, fns := range funcs {
			if !inPackage(dir, pkg) {
				continue
			}
			for _, fn := range fns {
				for _, prefix := range prefixes {
					if strings.HasPrefix(fn, prefix) {
						names = append(names, fn)
					}
				}
			}
		}
	}
	top := splitTop(p.expr, '/')[0]
	for _, alt := range splitTop(top, '|') {
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Errorf("%s: -%s %q: %v\n\t%s", src, p.flag, p.expr, err, strings.TrimSpace(line))
			continue
		}
		matched := false
		for _, name := range names {
			if re.MatchString(name) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: -%s alternative %q matches no function in %s\n\t%s",
				src, p.flag, alt, strings.Join(pkgs, " "), strings.TrimSpace(line))
		}
	}
}

// inPackage reports whether dir is one of the packages a go test
// argument (".", "./x/", "./x/...") names.
func inPackage(dir, arg string) bool {
	if base, ok := strings.CutSuffix(arg, "..."); ok {
		base = filepath.ToSlash(filepath.Clean(base))
		return base == "." || dir == base || strings.HasPrefix(dir, base+"/")
	}
	return dir == filepath.ToSlash(filepath.Clean(arg))
}

// splitTop splits a regular expression at each sep outside brackets,
// parentheses and escapes.
func splitTop(expr string, sep byte) []string {
	var parts []string
	depth, bracket, start := 0, false, 0
	for i := 0; i < len(expr); i++ {
		switch c := expr[i]; {
		case c == '\\':
			i++
		case bracket:
			bracket = c != ']'
		case c == '[':
			bracket = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, expr[start:i])
			start = i + 1
		}
	}
	return append(parts, expr[start:])
}

// docTestName is a test, fuzz or benchmark function's name as the docs
// write it.
var docTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// docPath is a command, example or internal package directory as the
// docs name it.
var docPath = regexp.MustCompile(`(?:\./|\b)examples/[\w-]+|\./(?:cmd|internal)/[\w-]+`)

// TestDocsNameTests holds every Test*, Fuzz* and Benchmark* name in the
// docs (docs/*.md, README.md, DESIGN.md, EXPERIMENTS.md) to a function
// of a _test.go file, or to the prefix of one: the docs name families
// such as BenchmarkObs* by their common prefix. Every examples/<dir>,
// ./cmd/<dir> and ./internal/<dir> they or the verify skill's SKILL.md
// name must be a directory in the tree.
func TestDocsNameTests(t *testing.T) {
	var all []string
	for _, fns := range testFuncs(t) {
		all = append(all, fns...)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	const skill = ".claude/skills/verify/SKILL.md"
	names, paths := 0, 0
	for _, doc := range append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md", skill) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range docPath.FindAllString(string(text), -1) {
			paths++
			if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
				t.Errorf("%s: %s is not a directory in the tree", doc, path)
			}
		}
		if doc == skill {
			continue
		}
		for _, name := range docTestName.FindAllString(string(text), -1) {
			names++
			found := false
			for _, fn := range all {
				if strings.HasPrefix(fn, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: %s names no test function", doc, name)
			}
		}
	}
	t.Logf("%d names and %d paths checked", names, paths)
}
