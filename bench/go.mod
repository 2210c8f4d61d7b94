module gatesim/bench

go 1.22

require gatesim v0.0.0

replace gatesim => ../
