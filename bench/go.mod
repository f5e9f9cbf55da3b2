module minequery/bench

go 1.22

require minequery v0.0.0

replace minequery => ../
