(** Short names for the modules used throughout this library. *)

module Point = Popan_geom.Point
module Box = Popan_geom.Box
module Xoshiro = Popan_rng.Xoshiro
module Pr_quadtree = Popan_trees.Pr_quadtree
