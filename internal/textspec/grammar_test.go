package textspec_test

import (
	"testing"

	"github.com/modular-consensus/modcon/internal/fault"
	"github.com/modular-consensus/modcon/internal/sched"
	"github.com/modular-consensus/modcon/internal/workload"
)

// verdict is one input of a grammar and whether its parser accepts it.
type verdict struct {
	in string
	ok bool
}

// TestGrammarsAgreeOnLexing runs the lexical edge cases through the three
// parsers built on Split. Only blank segments may be read differently:
// fault plans and workload specs skip them, adversary configs reject them.
func TestGrammarsAgreeOnLexing(t *testing.T) {
	rows := []struct {
		name string
		v    [3]verdict // fault plan, workload spec, adversary config
	}{
		{"whitespace around every element", [3]verdict{
			{" crash : pid = 1 , after = 2 ", true},
			{" burst : rate = 5 , on = 1s , off = 1s ", true},
			{" adv : base = rr ; rule : when = always , do = lowest ", true}}},
		{"trailing blank segment", [3]verdict{
			{"crash:after=2;", true},
			{"poisson:rate=1;", true},
			{"adv:base=rr;", false}}},
		{"leading blank segment", [3]verdict{
			{";crash:after=2", true},
			{";poisson:rate=1", true},
			{";adv:base=rr", false}}},
		{"blank segment between two", [3]verdict{
			{"crash:after=2; ;stall:after=1", true},
			{"poisson:rate=1; ;serve:servers=2", true},
			{"adv:base=rr; ;rule:when=always,do=lowest", false}}},
		{"only blank segments", [3]verdict{
			{" ; ", true}, // the empty plan
			{" ; ", false},
			{" ; ", false}}},
		{"empty parameter in the middle", [3]verdict{
			{"crash:pid=1,,after=2", false},
			{"burst:rate=1,,on=1s,off=1s", false},
			{"adv:base=rr,,w=1", false}}},
		{"empty trailing parameter", [3]verdict{
			{"crash:after=2,", false},
			{"poisson:rate=1,", false},
			{"adv:base=rr,", false}}},
		{"empty leading parameter", [3]verdict{
			{"crash:,after=2", false},
			{"poisson:,rate=1", false},
			{"adv:,base=rr", false}}},
		{"blank parameter", [3]verdict{
			{"crash:pid=1, ,after=2", false},
			{"poisson:rate=1, ", false},
			{"adv:base=rr, ,w=1", false}}},
		{"bare kind", [3]verdict{
			{"crash", false},
			{"poisson", false},
			{"adv", false}}},
		{"kind without parameters", [3]verdict{
			{"crash:", false},
			{"poisson:", false},
			{"adv:", false}}},
		{"missing ':'", [3]verdict{
			{"crash after=2", false},
			{"poisson rate=1", false},
			{"adv base=rr", false}}},
		{"empty kind", [3]verdict{
			{":after=2", false},
			{":rate=1", false},
			{":base=rr", false}}},
		{"empty key", [3]verdict{
			{"crash:=1,after=2", false},
			{"poisson:=2,rate=1", false},
			{"adv:=1,base=rr", false}}},
		{"parameter without '='", [3]verdict{
			{"crash:after", false},
			{"poisson:rate", false},
			{"adv:base", false}}},
		{"empty value", [3]verdict{
			{"crash:after=", false},
			{"poisson:rate=", false},
			{"adv:base=", false}}},
		{"repeated key", [3]verdict{
			{"crash:after=1,after=2", false},
			{"poisson:rate=1,rate=2", false},
			{"adv:base=rr,base=rr", false}}},
		{"repeated key after trimming", [3]verdict{
			{"crash:after=1, after =2", false},
			{"poisson:rate=1, rate =2", false},
			{"adv:base=rr, base =rr", false}}},
		{"same key in two segments", [3]verdict{
			{"crash:pid=0,after=1;crash:pid=1,after=2", true},
			{"poisson:rate=1;serve:servers=2", true},
			{"adv:base=rr;rule:when=always,do=lowest;rule:when=always,do=fire-read", true}}},
		{"':' inside a value", [3]verdict{
			{"crash:after=2:1", false},
			{"poisson:rate=1:2", false},
			{"adv:base=weighted,w=3:0:1;rule:when=step-ge:100,do=lowest", true}}},
		{"'=' inside a value", [3]verdict{
			{"crash:after=2=1", false},
			{"poisson:rate=1=2", false},
			{"adv:base=rr=x", false}}},
		{"unknown kind", [3]verdict{
			{"explode:pid=1", false},
			{"warble:rate=1", false},
			{"bogus:base=rr", false}}},
		{"kinds are case-sensitive", [3]verdict{
			{"Crash:after=1", false},
			{"Poisson:rate=1", false},
			{"ADV:base=rr", false}}},
	}
	parsers := [3]struct {
		grammar string
		parse   func(string) error
	}{
		{"fault plan", func(s string) error { _, err := fault.Parse(s); return err }},
		{"workload spec", func(s string) error { _, err := workload.Parse(s); return err }},
		{"adversary config", func(s string) error { _, err := sched.ParseParametric(s); return err }},
	}
	for _, r := range rows {
		for i, p := range parsers {
			v := r.v[i]
			if err := p.parse(v.in); (err == nil) != v.ok {
				t.Errorf("%s: %s %q: error %v, want accepted=%v", r.name, p.grammar, v.in, err, v.ok)
			}
		}
	}
}
