// Fixture for the //dapvet: directive grammar itself: malformed
// directives are findings, so a typo fails the build instead of silently
// disabling a rule. Type-checked as repro/internal/stream. The findings
// sit on the directive comment's own line, so the want comments below
// point one line up.
package stream

//dapvet:scrap typo in the directive name
var misspelled int // want(-1) directive "unknown dapvet directive"

//dapvet:lockorder-ok
var unjustified int // want(-1) directive "needs a justification"

//dapvet:scrape
var notAFunction int // want(-1) directive "must sit on a function's doc comment"

//dapvet:allocfree-ok a suppression must name a rule dapvet has
var noSuchRule int // want(-1) directive "unknown dapvet directive"

//dapvet:scrape
func properlyAnnotated() {}

func body() {
	_ = misspelled
	_ = unjustified
	_ = notAFunction
	_ = noSuchRule
	properlyAnnotated()
}
