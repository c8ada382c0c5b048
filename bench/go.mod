module github.com/approxdb/congress/bench

go 1.22

require github.com/approxdb/congress v0.0.0

replace github.com/approxdb/congress => ../
