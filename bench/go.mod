module github.com/here-ft/here/bench

go 1.24

require github.com/here-ft/here v0.0.0

replace github.com/here-ft/here => ../
