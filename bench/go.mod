module spanners/bench

go 1.24

require spanners v0.0.0

replace spanners => ../
