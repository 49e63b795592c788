package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The //dapvet: directive grammar (no space after //, like //go: ones):
//
//	//dapvet:scrape
//	    On a function's doc comment: the function runs at metrics-scrape
//	    time; the lockorder rule forbids it (and everything it calls in
//	    its package) from touching the store-mutex method set.
//
//	//dapvet:<suppression> <justification>
//	    Suppresses one rule's findings. On a function's doc comment it
//	    covers the whole function; on or above a source line it covers
//	    that line. The justification is mandatory — an unexplained
//	    suppression is itself a finding. Suppression tokens are the rule
//	    names with an -ok suffix: determinism-ok, lockorder-ok, budget-ok.
//
// Anything else after //dapvet: is a malformed directive and reported
// under the "directive" rule, so typos fail the build instead of
// silently disabling a check.

// suppression disables one rule over a file line range.
type suppression struct {
	rule     string
	file     string
	from, to int
}

// suppressionRule maps a directive token to the rule it suppresses.
func suppressionRule(word string) (string, bool) {
	name, ok := strings.CutSuffix(word, "-ok")
	return name, ok && AnalyzerNames()[name]
}

// suppressed reports whether a finding of rule at pos is covered by a
// suppression directive.
func (p *Package) suppressed(rule string, pos token.Position) bool {
	for _, s := range p.supp {
		if s.rule == rule && s.file == pos.Filename && pos.Line >= s.from && pos.Line <= s.to {
			return true
		}
	}
	return false
}

// scanDirectives parses every //dapvet: comment in the file, attaching
// scrape markers to their functions, recording suppressions and
// reporting malformed directives.
func (p *Package) scanDirectives(file *ast.File) {
	docOwner := make(map[*ast.CommentGroup]*ast.FuncDecl)
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			docOwner[fd.Doc] = fd
		}
	}
	bad := func(pos token.Pos, format string, args ...any) {
		p.badDirectives = append(p.badDirectives, Finding{
			Pos: p.Fset.Position(pos), Rule: "directive",
			Msg: fmt.Sprintf(format, args...),
		})
	}
	for _, cg := range file.Comments {
		owner := docOwner[cg]
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//dapvet:")
			if !ok {
				continue
			}
			word, arg, _ := strings.Cut(text, " ")
			arg = strings.TrimSpace(arg)
			switch word {
			case "scrape":
				if owner == nil {
					bad(c.Pos(), "//dapvet:scrape must sit on a function's doc comment")
					continue
				}
				p.scrape[owner] = true
			default:
				rule, ok := suppressionRule(word)
				if !ok {
					bad(c.Pos(), "unknown dapvet directive %q", word)
					continue
				}
				if arg == "" {
					bad(c.Pos(), "//dapvet:%s needs a justification", word)
					continue
				}
				pos := p.Fset.Position(c.Pos())
				s := suppression{rule: rule, file: pos.Filename, from: pos.Line, to: pos.Line + 1}
				if owner != nil {
					s.from = p.Fset.Position(owner.Pos()).Line
					s.to = p.Fset.Position(owner.End()).Line
				}
				p.supp = append(p.supp, s)
			}
		}
	}
}
