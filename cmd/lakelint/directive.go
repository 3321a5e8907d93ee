package main

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Directives are machine-readable contracts embedded in comments:
//
//	//lakelint:immutable
//	    on a type declaration — fields may be written only inside the
//	    type's constructors (same-package functions returning the type).
//	//lakelint:hotpath
//	    on a function declaration — the body must stay allocation- and
//	    boxing-free (see check_hotpath).
//	//lakelint:ignore <check>[,<check>...] -- <reason>
//	    suppresses findings of the named checks on the directive's line
//	    and the line below it. The reason is mandatory and must be
//	    non-empty: a suppression without a recorded justification is
//	    itself a finding, as is one that no longer suppresses anything
//	    (the ratchet that keeps stale escapes from accumulating).
//
// Directives follow the Go toolchain convention: no space after //,
// so gofmt preserves them verbatim.
const directivePrefix = "//lakelint:"

// directiveCheck is the pseudo-check name under which malformed,
// unknown, and unused directives are reported. It cannot be ignored:
// the escape hatch does not get its own escape hatch.
const directiveCheck = "directive"

// Directive is one parsed //lakelint: comment.
type Directive struct {
	// Kind is "ignore", "immutable", or "hotpath".
	Kind string
	// Checks are the check names an ignore directive suppresses.
	Checks []string
	// Reason is the mandatory justification of an ignore directive.
	Reason string
}

// ParseDirective parses the text of one comment (with or without the
// leading //). A comment that is not a lakelint directive returns
// (nil, nil); a malformed directive returns an error describing what
// is wrong with it.
func ParseDirective(text string) (*Directive, error) {
	text = strings.TrimPrefix(text, "//")
	rest, ok := strings.CutPrefix("//"+text, directivePrefix)
	if !ok {
		return nil, nil
	}
	// The directive keyword runs to the first space (or end of comment).
	kind, args, _ := strings.Cut(rest, " ")
	kind = strings.TrimSpace(kind)
	args = strings.TrimSpace(args)
	switch kind {
	case "immutable", "hotpath":
		if args != "" {
			return nil, fmt.Errorf("lakelint:%s takes no arguments (got %q)", kind, args)
		}
		return &Directive{Kind: kind}, nil
	case "ignore":
		checksPart, reason, found := strings.Cut(args, "--")
		reason = strings.TrimSpace(reason)
		if !found || reason == "" {
			return nil, fmt.Errorf("lakelint:ignore requires a non-empty reason: //lakelint:ignore <check> -- <reason>")
		}
		var checks []string
		for _, c := range strings.Split(checksPart, ",") {
			c = strings.TrimSpace(c)
			if c == "" {
				continue
			}
			checks = append(checks, c)
		}
		if len(checks) == 0 {
			return nil, fmt.Errorf("lakelint:ignore names no check: //lakelint:ignore <check> -- <reason>")
		}
		for _, c := range checks {
			if c == directiveCheck {
				return nil, fmt.Errorf("lakelint:ignore cannot suppress %q findings", directiveCheck)
			}
			if !knownCheckName(c) {
				return nil, fmt.Errorf("lakelint:ignore names unknown check %q", c)
			}
		}
		return &Directive{Kind: "ignore", Checks: checks, Reason: reason}, nil
	case "":
		return nil, fmt.Errorf("empty lakelint directive")
	default:
		return nil, fmt.Errorf("unknown lakelint directive %q", kind)
	}
}

// knownCheckName reports whether name is a registered check.
func knownCheckName(name string) bool {
	for _, c := range AllChecks {
		if c.Name == name {
			return true
		}
	}
	return false
}

// ignoreSite is one ignore directive with its resolved position.
type ignoreSite struct {
	file   string
	line   int // the directive comment's own line
	checks []string
	used   bool
}

// DirectiveIndex holds every directive in the module, resolved to
// positions and declarations. It is built once per Analyze, before the
// per-package fan-out, and is read-only afterwards (safe for the
// parallel check runners).
type DirectiveIndex struct {
	// immutable maps "pkgpath.TypeName" to true for every type marked
	// //lakelint:immutable. String keys, not types.Object identity,
	// so the index can be built from the AST alone.
	immutable map[string]bool
	// hotpath maps each *ast.FuncDecl carrying //lakelint:hotpath.
	hotpath map[*ast.FuncDecl]bool
	// ignores collects every ignore site, per file.
	ignores map[string][]*ignoreSite
	// malformed carries the directive findings discovered while
	// indexing (bad syntax, missing reason, unknown check, misplaced
	// annotation).
	malformed []Finding
}

// buildDirectives scans every comment of every file. It needs no type
// information.
func buildDirectives(m *Module) *DirectiveIndex {
	idx := &DirectiveIndex{
		immutable: make(map[string]bool),
		hotpath:   make(map[*ast.FuncDecl]bool),
		ignores:   make(map[string][]*ignoreSite),
	}
	for _, p := range m.Pkgs {
		pkgPath := modRelPath(m, p)
		for i, f := range p.Files {
			filename := p.Filenames[i]
			// Which comments are attached to declarations that can carry
			// an annotation directive.
			annotated := make(map[*ast.Comment]bool)
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if hasDirective(d.Doc, "hotpath", annotated) {
						idx.hotpath[d] = true
					}
				case *ast.GenDecl:
					var typeNames []string
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						typeNames = append(typeNames, ts.Name.Name)
						if hasDirective(ts.Doc, "immutable", annotated) {
							idx.immutable[pkgPath+"."+ts.Name.Name] = true
						}
					}
					// A directive on the GenDecl itself applies only to a
					// sole type spec; anywhere else it is misplaced and the
					// stray-directive audit below reports it.
					if len(typeNames) == 1 && hasDirective(d.Doc, "immutable", annotated) {
						idx.immutable[pkgPath+"."+typeNames[0]] = true
					}
				}
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					d, err := ParseDirective(c.Text)
					if err != nil {
						idx.malformed = append(idx.malformed,
							finding(m, c.Pos(), directiveCheck, "%s", err))
						continue
					}
					switch d.Kind {
					case "ignore":
						pos := m.Fset.Position(c.Pos())
						idx.ignores[filename] = append(idx.ignores[filename], &ignoreSite{
							file:   filename,
							line:   pos.Line,
							checks: d.Checks,
						})
					case "immutable", "hotpath":
						if !annotated[c] {
							idx.malformed = append(idx.malformed, finding(m, c.Pos(), directiveCheck,
								"lakelint:%s must annotate a %s declaration", d.Kind,
								map[string]string{"immutable": "type", "hotpath": "function"}[d.Kind]))
						}
					}
				}
			}
		}
	}
	return idx
}

// hasDirective reports whether the comment group carries the named
// directive, recording each matching comment in seen (when non-nil) so
// the placement audit can tell attached directives from stray ones.
func hasDirective(doc *ast.CommentGroup, kind string, seen map[*ast.Comment]bool) bool {
	if doc == nil {
		return false
	}
	found := false
	for _, c := range doc.List {
		d, err := ParseDirective(c.Text)
		if err != nil || d == nil {
			continue
		}
		if d.Kind == kind {
			found = true
			if seen != nil {
				seen[c] = true
			}
		}
	}
	return found
}

// Immutable reports whether the named type (package path relative to
// the module root, "." joined with the type name) is marked immutable.
func (idx *DirectiveIndex) Immutable(pkgPath, typeName string) bool {
	return idx.immutable[pkgPath+"."+typeName]
}

// Hotpath reports whether fd carries the hotpath annotation.
func (idx *DirectiveIndex) Hotpath(fd *ast.FuncDecl) bool { return idx.hotpath[fd] }

// applyIgnores removes findings suppressed by an ignore directive (on
// the finding's line or the line above it) and appends a directive
// finding for every ignore that suppressed nothing. Directive findings
// themselves are never suppressed. unusedAudit is false when only a
// subset of checks ran — an ignore for a check that did not run is not
// stale.
func (idx *DirectiveIndex) applyIgnores(m *Module, findings []Finding, unusedAudit bool) []Finding {
	kept := findings[:0]
	for _, f := range findings {
		if f.Check != directiveCheck && idx.suppressed(f) {
			continue
		}
		kept = append(kept, f)
	}
	if unusedAudit {
		var files []string
		for file := range idx.ignores {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			for _, site := range idx.ignores[file] {
				if !site.used {
					kept = append(kept, Finding{
						File:  site.file,
						Line:  site.line,
						Col:   1,
						Check: directiveCheck,
						Msg: fmt.Sprintf("unused suppression (%s): no finding on this or the next line; remove the directive",
							strings.Join(site.checks, ",")),
					})
				}
			}
		}
	}
	return kept
}

// suppressed reports whether a finding is covered by an ignore
// directive, marking the directive used.
func (idx *DirectiveIndex) suppressed(f Finding) bool {
	hit := false
	for _, site := range idx.ignores[f.File] {
		if f.Line != site.line && f.Line != site.line+1 {
			continue
		}
		for _, c := range site.checks {
			if c == f.Check {
				site.used = true
				hit = true
			}
		}
	}
	return hit
}

// modRelPath is the package path relative to the module root (matched
// by path shape so fixture trees can replicate the real packages); the
// external-test marker is stripped so annotations resolve identically.
func modRelPath(m *Module, p *Package) string {
	rel := strings.TrimSuffix(p.Path, " [test]")
	rel = strings.TrimPrefix(rel, m.Path)
	return strings.TrimPrefix(rel, "/")
}
