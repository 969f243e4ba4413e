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
// scripts/verify.sh, in the verify skill's SKILL.md and in docs/*.md
// (bash blocks and inline code) to tests that exist. go test passes a -run
// pattern that matches nothing with "no tests to run", so a renamed test
// would otherwise drop out of its gate unnoticed. Each top-level |
// alternative of each -run, -bench and -fuzz pattern must match at least
// one function in the command's packages: Test, Fuzz and Example
// functions for -run and -fuzz, Benchmark functions for -bench. As in go
// test, only the part before the first / names a top-level function.
// '^$' (run nothing) is the one pattern exempt.
//
// verify.sh is the one place a gate is written: a command outside it
// that adds a mode (-race, -short, -count or -bench) must be one of its
// lines, word for word, so a gate cannot be restated with a weaker mode
// and drift from the one that runs.
func TestGatesNameTests(t *testing.T) {
	const verify = "scripts/verify.sh"
	funcs := testFuncs(t)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	gates := make(map[string]bool)
	for _, src := range append([]string{verify, ".claude/skills/verify/SKILL.md"}, docs...) {
		text, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		scripts := []string{string(text)}
		if src != verify {
			scripts = append(bashBlocks(string(text)), inlineCommands(string(text))...)
		}
		commands, patterns := 0, 0
		for _, script := range scripts {
			for _, line := range strings.Split(strings.ReplaceAll(script, "\\\n", " "), "\n") {
				for _, cmd := range goTestCommands(line) {
					commands++
					key := strings.Join(cmd.words, " ")
					switch {
					case src == verify:
						gates[key] = true
					case cmd.mode && !gates[key]:
						t.Errorf("%s: a go test command that adds a mode is not a line of scripts/verify.sh\n\t%s",
							src, strings.TrimSpace(line))
					}
					for _, p := range cmd.patterns {
						patterns++
						checkPattern(t, src, line, cmd.pkgs, p, funcs)
					}
				}
			}
		}
		if src == verify && commands == 0 {
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
	for _, path := range treeFiles(t, "_test.go") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[dir] = append(funcs[dir], fn.Name.Name)
			}
		}
	}
	return funcs
}

// treeFiles returns the files of the tree whose names end in suffix,
// outside testdata and hidden directories.
func treeFiles(t *testing.T, suffix string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, suffix) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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

// inlineCode is a go test command in markdown's inline code, which may
// run over a line break.
var inlineCode = regexp.MustCompile("`(go test [^`]*)`")

// inlineCommands returns markdown's inline go test commands, each on one
// line.
func inlineCommands(md string) []string {
	var cmds []string
	for _, m := range inlineCode.FindAllStringSubmatch(md, -1) {
		cmds = append(cmds, strings.Join(strings.Fields(m[1]), " "))
	}
	return cmds
}

// gateCommand is one go test invocation: its words from go on, its
// package arguments, its patterns, each with the flag that carries it,
// and whether it adds a mode (-race, -short, -count or -bench).
type gateCommand struct {
	words    []string
	pkgs     []string
	patterns []gatePattern
	mode     bool
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
		start := i
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
			switch name {
			case "race", "short", "count", "bench":
				cmd.mode = true
			}
		}
		cmd.words = words[start:i]
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

// sectionCitation is a cited section of a doc as the tree writes it,
// docs/<file>.md "<Section>" (a comma may follow the file), once line breaks and the comment markers
// that open a continued line are folded into spaces.
var sectionCitation = regexp.MustCompile(`docs/([\w-]+\.md),?\s+"([^"]+)"`)

// foldLines joins continued lines: a line break, its indentation and a
// leading // or # become one space.
var foldLines = regexp.MustCompile(`\n[ \t]*(?://+|#+)?[ \t]*`)

// TestSectionCitationsResolve holds every docs/<file>.md "<Section>"
// citation in the Go files, the docs, ROADMAP.md, the verify skill's
// SKILL.md and scripts/ to a heading of that file. A heading answers to
// its text with or without a trailing parenthetical: "Smart racing"
// names "## Smart racing (per-destination transport selection)".
func TestSectionCitationsResolve(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}
	for _, glob := range []string{"docs/*.md", "scripts/*"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	files = append(files, treeFiles(t, ".go")...)
	headings := make(map[string]map[string]bool)
	cites := 0
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sectionCitation.FindAllStringSubmatch(foldLines.ReplaceAllString(string(text), " "), -1) {
			doc, section := m[1], m[2]
			if headings[doc] == nil {
				headings[doc] = docHeadings(t, "docs/"+doc)
			}
			cites++
			if !headings[doc][section] {
				t.Errorf("%s: docs/%s %q names no heading of that file", file, doc, section)
			}
		}
	}
	t.Logf("%d citations in %d files", cites, len(files))
}

// docHeadings returns the headings of a markdown file outside its code
// fences, each also without a trailing parenthetical.
func docHeadings(t *testing.T, path string) map[string]bool {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heads := make(map[string]bool)
	fence := false
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "```") {
			fence = !fence
			continue
		}
		rest, ok := strings.CutPrefix(strings.TrimLeft(line, "#"), " ")
		if fence || !ok || !strings.HasPrefix(line, "#") {
			continue
		}
		heads[rest] = true
		if i := strings.LastIndex(rest, " ("); i > 0 && strings.HasSuffix(rest, ")") {
			heads[rest[:i]] = true
		}
	}
	return heads
}
