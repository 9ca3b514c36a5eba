(* The repository's benchmark.

   Four workloads — Table 1 cold and warm, the generated corpus, and the
   serve core — each reported through counters that repeat from run to
   run (allocated words, solver steps, fresh BDD nodes, decided ratio),
   plus peak RSS and the wall time of set-up.  [--trace 1] runs
   the outside-in layer trace instead: it times the calls into each
   layer's public functions and prints one row per layer and per Table 1
   query.  README.md explains the choices; run.py builds and runs this.

   Usage:
     main.exe --workload W --seed N --seconds S --trace 0|1
   and, as its own child process:
     main.exe --child Q --trace 0|1 --warm K   (one cold Table 1 query)
     main.exe --child load                     (load the programs only) *)

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)

let now = Unix.gettimeofday

type gc_mark = {
  alloc : float;  (** minor + major - promoted: every word allocated *)
  major : float;  (** words allocated in or promoted to the major heap *)
  minor_gcs : int;
  major_gcs : int;
}

(* [Gc.quick_stat] sums each live domain's counters as sampled at its
   last minor collection, plus those of terminated domains.  Forcing a
   minor collection first makes the live domains' samples current; a
   domain that is still running may allocate after that, so a window is
   closed only once every other domain has been joined. *)
let gc_mark () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    alloc = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    major = s.Gc.major_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_since m0 =
  let m1 = gc_mark () in
  {
    alloc = m1.alloc -. m0.alloc;
    major = m1.major -. m0.major;
    minor_gcs = m1.minor_gcs - m0.minor_gcs;
    major_gcs = m1.major_gcs - m0.major_gcs;
  }

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> find ())
      in
      find ())

(* OS threads of this process: a worker domain's thread exits only after
   the domain has terminated and handed its GC counters to the process. *)
let os_threads () = Array.length (Sys.readdir "/proc/self/task")

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* [n] timings of [f], median, and the last result. *)
let median_time n f =
  let times = ref [] and last = ref None in
  for _ = 1 to n do
    let r, dt = timed f in
    times := dt :: !times;
    last := Some r
  done;
  (median !times, Option.get !last)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)

(* Block maps of the paper's fusion queries (as in bench/main.ml). *)
let map_fused =
  [ ("s0", "fnil"); ("s4", "fnil"); ("s3", "fret"); ("s7", "fret");
    ("s10", "s10") ]

let map_mutation =
  [ ("wnil", "wnil"); ("inil", "wnil"); ("wset", "wset");
    ("ileaf", "ileaf"); ("istep", "istep"); ("mret", "mret") ]

let map_css =
  [ ("cvnil", "cvnil"); ("mfnil", "cvnil"); ("rinil", "cvnil");
    ("cvset", "cvset"); ("cvskip", "cvskip"); ("mfset", "mfset");
    ("mfskip", "mfskip"); ("riset", "riset"); ("riskip", "riskip");
    ("mret", "mret") ]

type expect = Valid | Counterexample | Race_free | Racy
type spec = Equiv of string * string * Analysis.block_map | Race of string

(* E6 (cycletree fusion) is left out: one run takes about 480 s. *)
let table1 =
  [
    ("E1", Equiv (Programs.size_counting_seq, Programs.size_counting_fused,
                  map_fused), Valid);
    ("E2", Equiv (Programs.size_counting_seq,
                  Programs.size_counting_fused_invalid, map_fused),
     Counterexample);
    ("E3", Race Programs.size_counting, Race_free);
    ("E4", Equiv (Programs.tree_mutation_seq, Programs.tree_mutation_fused,
                  map_mutation), Valid);
    ("E5", Equiv (Programs.css_minification_seq,
                  Programs.css_minification_fused, map_css), Valid);
    ("E7", Race Programs.cycletree_par, Racy);
  ]

type loaded = L_equiv of Blocks.t * Blocks.t * Analysis.block_map | L_race of Blocks.t

let load = function
  | Equiv (a, b, map) -> L_equiv (Programs.load a, Programs.load b, map)
  | Race a -> L_race (Programs.load a)

(* A verdict as the expected answer it gives; [None] for unknown. *)
let equiv_verdict = function
  | Analysis.Equivalent _ -> Some Valid
  | Analysis.Not_equivalent _ | Analysis.Bisimulation_failed _ -> Some Counterexample
  | Analysis.Equiv_unknown _ -> None

let race_verdict = function
  | Analysis.Race_free -> Some Race_free
  | Analysis.Race _ -> Some Racy
  | Analysis.Race_unknown _ -> None

(* A query at [Validate.Witness] with no budget: the verdict and the
   self-validation report. *)
let validated = function
  | L_equiv (p, p', map) ->
    let r, report = Validate.check_equivalence ~level:Validate.Witness p p' ~map in
    (equiv_verdict r, report)
  | L_race p ->
    let r, report = Validate.check_data_race ~level:Validate.Witness p in
    (race_verdict r, report)

(* The same query without validation, with the per-pair callback. *)
let analysis ?on_pair = function
  | L_equiv (p, p', map) -> equiv_verdict (Analysis.check_equivalence ?on_pair p p' ~map)
  | L_race p -> race_verdict (Analysis.check_data_race ?on_pair p)

let replays (report : Validate.report) =
  List.length
    (List.filter
       (fun (c : Validate.check) ->
         Filename.check_suffix c.Validate.name ".replay"
         && c.Validate.status = Validate.Passed)
       report.Validate.checks)

(* Right verdict, clean self-validation, and every counterexample
   confirmed by concrete replay. *)
let judge expect (verdict, report) =
  verdict = Some expect && Validate.ok report
  && match expect with
     | Counterexample | Racy -> replays report > 0
     | Valid | Race_free -> true

(* ------------------------------------------------------------------ *)
(* Treeauto operation statistics, read through the public printer       *)

let op_names = [ "inter"; "union"; "minimize"; "project" ]

(* [(op, (seconds, calls))] for every operation since the last reset.
   [project] ends with a [minimize] of its own, so that call is counted
   under both names. *)
let op_stats () =
  Format.asprintf "%a" Treeauto.pp_op_stats ()
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         Scanf.sscanf_opt line "%s@: %fs over %d calls" (fun k t n -> (k, (t, n))))

let op_seconds stats = List.fold_left (fun acc (_, (t, _)) -> acc +. t) 0. stats

(* ------------------------------------------------------------------ *)
(* Child processes: one cold Table 1 query each                         *)

(* The child prints one line "CHILD k=v k=v ..." as its last line. *)
let emit kvs =
  print_string "CHILD";
  List.iter (fun (k, v) -> Printf.printf " %s=%.17g" k v) kvs;
  print_newline ()

let b2f b = if b then 1. else 0.

let query id =
  match List.find_opt (fun (i, _, _) -> i = id) table1 with
  | Some (_, spec, expect) -> (spec, expect)
  | None -> invalid_arg ("no Table 1 query " ^ id)

let child_cold id =
  let spec, expect = query id in
  let l = load spec in
  let g0 = gc_mark () in
  let res, usage = Engine.metered (fun () -> validated l) in
  let g = gc_since g0 in
  let ok, decided =
    match res with
    | Ok ((v, _) as r) -> (judge expect r, v <> None)
    | Error _ -> (false, false)
  in
  emit
    [ ("ok", b2f ok); ("decided", b2f decided); ("alloc", g.alloc);
      ("major", g.major); ("peak_mb", peak_rss_mb ());
      ("steps", float_of_int usage.Engine.steps);
      ("nodes", float_of_int usage.Engine.nodes) ]

(* The traced child: the cold query through [Analysis] with the per-pair
   callback, the treeauto construction observer and the operation
   statistics; then [warm] validated repeats in the same process, and one
   plain and one traced warm repeat to price the tracing itself. *)
let child_trace id warm =
  let spec, expect = query id in
  let l = load spec in
  let states_out = ref 0 and max_states = ref 0 in
  let observe _ a =
    let n = Treeauto.size a in
    states_out := !states_out + n;
    if n > !max_states then max_states := n
  in
  let stamps = ref [] in
  let on_pair _ _ = stamps := now () :: !stamps in
  Treeauto.reset_op_stats ();
  Treeauto.set_observer observe;
  let g0 = gc_mark () in
  let t0 = now () in
  let res, usage = Engine.metered (fun () -> analysis ~on_pair l) in
  let t1 = now () in
  let g = gc_since g0 in
  Treeauto.clear_observer ();
  let cold_ops = op_stats () in
  let cold_ok = res = Ok (Some expect) in
  let pairs = List.length !stamps and cold_states = !states_out and cold_max = !max_states in
  let pair_times =
    let rec gaps = function a :: (b :: _ as rest) -> (b -. a) :: gaps rest | _ -> [] in
    gaps (List.rev (t1 :: !stamps))
  in
  let warm_runs =
    List.init warm (fun _ ->
        Treeauto.reset_op_stats ();
        let (r, usage), wall = timed (fun () -> Engine.metered (fun () -> validated l)) in
        let ok, query_s, validate_s, replayed =
          match r with
          | Ok ((_, report) as vr) ->
            ( judge expect vr, report.Validate.query_time,
              report.Validate.validation_time, float_of_int (replays report) )
          | Error _ -> (false, wall, 0., 0.)
        in
        (ok, [ ("wall", wall); ("query_s", query_s); ("validate_s", validate_s);
               ("replays", replayed); ("treeauto_s", op_seconds (op_stats ()));
               ("nodes", float_of_int usage.Engine.nodes) ]))
  in
  let warm_ok = List.for_all fst warm_runs in
  let warm k = List.map (fun (_, kv) -> List.assoc k kv) warm_runs in
  let plain = gc_mark () in
  ignore (analysis l);
  let plain = (gc_since plain).alloc in
  let traced = gc_mark () in
  Treeauto.set_observer observe;
  ignore (analysis ~on_pair l);
  ignore (op_stats ());
  Treeauto.clear_observer ();
  let traced = (gc_since traced).alloc in
  let op k f = match List.assoc_opt k cold_ops with Some x -> f x | None -> 0. in
  emit
    ([ ("ok", b2f (cold_ok && warm_ok));
       ("query_s", t1 -. t0);
       ("treeauto_s", op_seconds cold_ops);
       ("pairs", float_of_int pairs);
       ("pair_max_s", List.fold_left max 0. pair_times);
       ("steps", float_of_int usage.Engine.steps);
       ("nodes", float_of_int usage.Engine.nodes);
       ("states_out", float_of_int cold_states);
       ("max_states", float_of_int cold_max);
       ("minor_gcs", float_of_int g.minor_gcs);
       ("major_gcs", float_of_int g.major_gcs);
       ("warm_s", median (warm "query_s"));
       ("warm_treeauto_s", median (warm "treeauto_s"));
       ("warm_nodes", median (warm "nodes"));
       ("validate_s", median (warm "validate_s"));
       ("replays", median (warm "replays"));
       ("wall_p25", quantile 0.25 (warm "wall"));
       ("wall_p50", median (warm "wall"));
       ("wall_p75", quantile 0.75 (warm "wall"));
       ("overhead_alloc", traced -. plain) ]
    @ List.concat_map
        (fun k ->
          [ (k ^ ".s", op k fst); (k ^ ".calls", op k (fun (_, n) -> float_of_int n)) ])
        op_names)

(* Run this executable as a child and parse its CHILD line; [None] if it
   crashed or printed none. *)
let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "CHILD ")
      (String.split_on_char '\n' out)
  in
  match (status, line) with
  | Unix.WEXITED 0, Some line ->
    Some
      (List.filter_map
         (fun kv ->
           match String.split_on_char '=' kv with
           | [ k; v ] -> Some (k, float_of_string v)
           | _ -> None)
         (List.tl (String.split_on_char ' ' line)))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type run = {
  attempted : int;  (** queries, and the set-up as one more operation *)
  failed : int;
  queries : int;
  decided : int;  (** queries with a definite verdict *)
  setup_s : float;
  alloc : float;
  major : float;
  peak_mb : float;
  steps : int;
  nodes : int;
  layers : (string * float * string) list;
      (** per-layer rows this workload measured on the way *)
}

(* Set-up: parsing and checking the Table 1 programs. *)
let load_table1 () = List.map (fun (id, spec, expect) -> (id, load spec, expect)) table1

(* Set-up time.  On a shared machine one sample's wall time swings by a
   third within seconds, and a long sample averages that load in.  So each
   workload times a short set-up step many times, a few samples at each of
   several fixed points spread over the run, and reports the fastest: what
   the step costs when nothing else is running ([serve_repeat] explains its
   exception).  Each group of samples starts from a fully collected heap,
   so that a sample does not pay for collecting the workload's own garbage.
   The number of samples is fixed, so the counters never depend on timing. *)
type setup = { mutable times : float list; mutable setup_ok : bool }

let new_setup () = { times = []; setup_ok = true }

(* [k] samples of [f], which says whether its step succeeded. *)
let sample_setup s k f =
  Gc.full_major ();
  for _ = 1 to k do
    let ok, dt = timed f in
    s.times <- dt :: s.times;
    s.setup_ok <- s.setup_ok && ok
  done

let fastest s = List.fold_left min infinity s.times

(* Sums of GC counters and [Engine.metered] usage over separate windows,
   so that set-up samples taken between them stay out of the counters. *)
type window = { mutable w_gc : gc_mark; mutable w_steps : int; mutable w_nodes : int }

let new_window () =
  { w_gc = { alloc = 0.; major = 0.; minor_gcs = 0; major_gcs = 0 }; w_steps = 0; w_nodes = 0 }

let in_window w f =
  let g0 = gc_mark () in
  let res, usage = Engine.metered f in
  let g = gc_since g0 in
  w.w_gc <-
    { alloc = w.w_gc.alloc +. g.alloc; major = w.w_gc.major +. g.major;
      minor_gcs = w.w_gc.minor_gcs + g.minor_gcs; major_gcs = w.w_gc.major_gcs + g.major_gcs };
  w.w_steps <- w.w_steps + usage.Engine.steps;
  w.w_nodes <- w.w_nodes + usage.Engine.nodes;
  res

(* Set-up of a cold query is a fresh process that loads the programs.
   Ten such children run before each query child and ten after the
   last.  The set-up counts as one operation, failed if any child failed. *)
let table1_cold ~seed =
  let setup = new_setup () in
  let load_child () = spawn [ "--child"; "load"; "--trace"; "0" ] <> None in
  let order = shuffle (Random.State.make [| seed |]) (List.map (fun (id, _, _) -> id) table1) in
  let results =
    List.map
      (fun id ->
        sample_setup setup 10 load_child;
        spawn [ "--child"; id; "--trace"; "0" ])
      order
  in
  sample_setup setup 10 load_child;
  let sum k = List.fold_left (fun acc r -> match r with Some kv -> acc +. List.assoc k kv | None -> acc) 0. results in
  let peak = List.fold_left (fun acc r -> match r with Some kv -> max acc (List.assoc "peak_mb" kv) | None -> acc) 0. results in
  let queries = List.length results in
  {
    attempted = queries + 1;
    failed = queries - int_of_float (sum "ok") + (if setup.setup_ok then 0 else 1);
    queries;
    decided = int_of_float (sum "decided");
    setup_s = fastest setup;
    alloc = sum "alloc";
    major = sum "major";
    peak_mb = peak;
    steps = int_of_float (sum "steps");
    nodes = int_of_float (sum "nodes");
    layers = [];
  }

(* The full warm-up pass takes about 15 s, one sample per run, so it is
   not what [setup_s] times here.  A set-up sample is a fresh context with
   the Table 1 programs loaded and E7, the shortest query, warmed up in it:
   six before the warm-up pass, six after it and six after each timed
   pass.  The warm-up pass is the cold work of the six queries, which the
   counters of [table1-cold] gate, and its fresh BDD nodes are counted in
   [bdd_nodes] below. *)
let table1_warm ~seed ~passes =
  let setup = new_setup () in
  let setup_sample () =
    Solver_ctx.with_fresh (fun () ->
        match List.find (fun (id, _, _) -> id = "E7") (load_table1 ()) with
        | _, l, expect -> judge expect (validated l))
  in
  sample_setup setup 6 setup_sample;
  Solver_ctx.with_ctx (Solver_ctx.create ()) @@ fun () ->
  let loaded = load_table1 () in
  let pass order =
    List.map (fun (_, l, expect) ->
        let ((v, _) as r) = validated l in
        (judge expect r, v <> None))
      order
  in
  let warmup, warmup_usage = Engine.metered (fun () -> pass loaded) in
  let warmup = match warmup with Ok o -> o | Error _ -> [] in
  sample_setup setup 6 setup_sample;
  let rng = Random.State.make [| seed |] in
  let w = new_window () in
  let timed_passes =
    List.concat_map
      (fun order ->
        let res = in_window w (fun () -> pass order) in
        sample_setup setup 6 setup_sample;
        match res with Ok o -> o | Error _ -> [])
      (List.init passes (fun _ -> shuffle rng loaded))
  in
  let outcomes = warmup @ timed_passes in
  let queries = List.length loaded * (passes + 1) in
  {
    attempted = queries + 1;
    failed =
      queries - List.length (List.filter fst outcomes) + (if setup.setup_ok then 0 else 1);
    queries;
    decided = List.length (List.filter snd outcomes);
    setup_s = fastest setup;
    alloc = w.w_gc.alloc;
    major = w.w_gc.major;
    peak_mb = peak_rss_mb ();
    steps = w.w_steps;
    (* The timed passes find every BDD node in the hash-cons store and
       allocate none, so this counter covers the warm-up pass as well. *)
    nodes = warmup_usage.Engine.nodes + w.w_nodes;
    layers = [];
  }

let corpus_classes =
  Factory.
    [ (Fuse_valid, Css); (Fuse_valid, Syn); (Fuse_broken, Css); (Fuse_broken, Syn);
      (Par_racy, Css); (Par_racy, Syn); (Par_clean, Css); (Par_clean, Syn) ]

let in_class (kind, family) (sc : Factory.scenario) =
  sc.Factory.sc_kind = kind && sc.Factory.sc_family = family

(* Target sizes for each scenario kind and family: with [k] scenarios per
   class, the class's size quantiles (2i - 1) / 2k, i = 1..k, over a fixed
   reference sample (seed 0, 2400 scenarios).  Scenarios of one kind,
   family and size mostly cost the solver the same, so drawing the ones
   nearest these targets from the seed's sample kept the counters'
   quartiles across ten seeds within about 2 %, where a plain sample of 30
   moved them by a quarter.  Some sizes come in two shapes of different
   cost, so the spread falls as [k] grows (README.md).  The reference does
   not depend on the seed: class medians of a single seed's sample jump
   between the few sizes the factory favours (724 or 938 for broken CSS
   fusions). *)
let corpus_targets ~per_class =
  let reference = Factory.sample ~seed:0 ~count:2400 in
  List.map
    (fun cls ->
      let sizes =
        List.filter_map
          (fun sc -> if in_class cls sc then Some (float_of_int (Factory.scenario_size sc)) else None)
          reference
      in
      let q i = float_of_int ((2 * i) + 1) /. float_of_int (2 * per_class) in
      (cls, List.init per_class (fun i -> Float.round (quantile (q i) sizes) |> int_of_float)))
    corpus_classes

(* For each class and target, the scenario of the pool nearest it in size,
   each scenario picked at most once; the picks grouped by class. *)
let pick_corpus targets pool =
  List.map
    (fun (cls, sizes) ->
      let members = List.filter (in_class cls) pool in
      List.fold_left
        (fun picked target ->
          let distance sc = abs (Factory.scenario_size sc - target) in
          match
            List.filter (fun sc -> not (List.memq sc picked)) members
            |> List.stable_sort (fun a b -> compare (distance a) (distance b))
          with
          | sc :: _ -> picked @ [ sc ]
          | [] -> picked)
        [] sizes)
    targets

(* The share of the pool's size range that the picked scenarios span. *)
let size_range_share picked pool =
  let range l =
    let sizes = List.map Factory.scenario_size l in
    float_of_int (List.fold_left max 0 sizes - List.fold_left min max_int sizes)
  in
  range picked /. range pool

(* One domain throughout ([jobs = 1], no serve cross-check), so GC
   counters are exact without any join.  A set-up sample generates the
   seed's 600 scenarios and picks from them; five run before each class's
   campaign and five after the last. *)
let corpus_batch ~seed ~per_class =
  let targets = corpus_targets ~per_class in
  let setup = new_setup () in
  let generate () = pick_corpus targets (Factory.sample ~seed ~count:600) in
  let classes = generate () in
  let regenerate () = List.length (generate ()) = List.length classes in
  let cfg = { Corpus.default_config with Corpus.jobs = 1; serve_sample = 0 } in
  let w = new_window () in
  let summaries, wall =
    timed (fun () ->
        List.map
          (fun scenarios ->
            sample_setup setup 5 regenerate;
            in_window w (fun () -> Corpus.run_campaign cfg scenarios))
          classes)
  in
  sample_setup setup 5 regenerate;
  let count f =
    List.fold_left (fun acc r -> match r with Ok s -> acc + f s | Error _ -> acc + 1) 0 summaries
  in
  let queries = count (fun s -> s.Corpus.queries) in
  let failed = count (fun s -> List.length s.Corpus.disagreements) + (if setup.setup_ok then 0 else 1) in
  let unknown = count (fun s -> s.Corpus.unknown) in
  let picked = List.concat classes in
  {
    attempted = queries + 1;
    failed = min (queries + 1) failed;
    queries;
    decided = queries - unknown;
    setup_s = fastest setup;
    alloc = w.w_gc.alloc;
    major = w.w_gc.major;
    peak_mb = peak_rss_mb ();
    steps = w.w_steps;
    nodes = w.w_nodes;
    layers =
      [ ("factory.gen_s", fastest setup, "s"); ("corpus.s", wall, "s");
        ("corpus.unknown", float_of_int unknown, "count");
        ("corpus.size_range_share", size_range_share picked (Factory.sample ~seed ~count:600), "1") ];
  }

(* The golden race verdicts of the bundled programs (programs/README.md). *)
let golden =
  List.map
    (fun (name, src) ->
      let racy = name = "cycletree_par" || name = "racy_writers" in
      (name, src, if racy then ("DATA RACE", 1) else ("data-race-free", 0)))
    Programs.all_named

(* An integer line of [Serve.Core.metrics_text]. *)
let metric_line text key =
  List.find_map
    (fun l ->
      match Scanf.sscanf_opt l "%s %d%!" (fun k v -> (k, v)) with
      | Some (k, v) when k = key -> Some v
      | _ -> None)
    (String.split_on_char '\n' text)

(* One closed-loop client on the calling thread, one worker domain.  The
   ledger allowance is far above what the run can spend and the single
   client never has more than one request queued, so admission control
   never sheds: a shed reply is counted as a failure.  With [per_request]
   the client reads serve's hit counter after each request, to split the
   reply times into hits and misses; that is for the layer trace only, as
   the reading allocates in the measured window. *)
let serve_repeat ?(per_request = false) ~seed ~passes () =
  let create () = Serve.Core.create ~workers:1 ~max_queue:64 ~allowance:1e9 () in
  (* Settle this process's own helper threads (tick and backup threads
     appear with the first thread and the first extra domain), so that
     [threads0] is the count a fully drained core returns to. *)
  Domain.join (Domain.spawn ignore);
  Thread.join (Thread.create ignore ());
  let threads0 = os_threads () in
  (* Wait until the thread count satisfies [ok]; whether it did, and the
     words the polling itself allocated. *)
  let await ok =
    let w0 = Gc.minor_words () in
    let deadline = now () +. 10. in
    while (not (ok (os_threads ()))) && now () < deadline do
      Thread.delay 0.0002
    done;
    (ok (os_threads ()), Gc.minor_words () -. w0)
  in
  (* A started core has its supervisor thread and its worker domain's
     thread; a drained one has neither. *)
  let start () =
    let core = create () in
    let up, words = await (fun n -> n >= threads0 + 2) in
    (core, up, words)
  in
  let stop core =
    ignore (Serve.Core.drain core);
    await (fun n -> n <= threads0)
  in
  let options = { Serve.default_options with Serve.client = "perfbench" } in
  (* A set-up sample creates a core and waits for its first reply, to
     cycletree_fused: a race-free program whose query takes under a
     millisecond, so the sample times serve's start-up more than the
     solver.  120 run after the measured core has drained and its peak RSS
     has been read, so that they stay out of its counters.  Unlike the
     other workloads', this sample is mostly thread start-up and wake-up
     latency, and its fastest value is a rare lucky case that moved by
     half between runs; the median of the 120 is the steadier figure. *)
  let setup = new_setup () in
  let _, first_src, first_want = List.find (fun (name, _, _) -> name = "cycletree_fused") golden in
  let setup_sample () =
    let (c, reply), dt =
      timed (fun () ->
          let c = create () in
          (c, Serve.Core.solve c ~options ~source:first_src))
    in
    let down, _ = stop c in
    setup.times <- dt :: setup.times;
    setup.setup_ok <-
      setup.setup_ok && down
      && reply = Serve.Verdict { code = snd first_want; text = fst first_want }
  in
  let rng = Random.State.make [| seed |] in
  let requests = Array.of_list (List.concat (List.init passes (fun _ -> shuffle rng golden))) in
  let n = Array.length requests in
  let times = Float.Array.make n 0. and words = Float.Array.make n 0. in
  let hit = Array.make n false in
  let failed = ref 0 in
  (* The window spans the core's whole life, from before its worker
     domain exists until after that domain has exited.  Replies are
     checked as they arrive and not kept, so the benchmark's own live
     data stays flat. *)
  let g0 = gc_mark () in
  let core, up, up_words = start () in
  let hits_so_far () = Option.value (metric_line (Serve.Core.metrics_text core) "cache_hits") ~default:0 in
  Array.iteri
    (fun i (_, src, want) ->
      let hits0 = if per_request then hits_so_far () else 0 in
      let w0 = Gc.minor_words () and t0 = now () in
      let reply = Serve.Core.solve core ~options ~source:src in
      Float.Array.set times i (now () -. t0);
      Float.Array.set words i (Gc.minor_words () -. w0);
      if per_request then hit.(i) <- hits_so_far () > hits0;
      match reply with
      | Serve.Verdict { code; text } when (text, code) = want -> ()
      | _ -> incr failed)
    requests;
  let down, down_words = stop core in
  let g = gc_since g0 in
  let g = { g with alloc = g.alloc -. up_words -. down_words } in
  let metrics = Serve.Core.metrics_text core in
  let peak_mb = peak_rss_mb () in
  Gc.full_major ();
  for _ = 1 to 120 do setup_sample () done;
  (* Serve's own counters: each program misses the reply cache once and
     is solved once, every later request hits, and nothing is evicted.
     Anything else fails the run. *)
  let counter k = Option.value (metric_line metrics k) ~default:(-1) in
  let programs = List.length golden in
  let hits = counter "cache_hits" in
  let counters_ok =
    counter "cache_misses" = programs && hits = n - programs
    && counter "jobs_completed" = programs && counter "cache_evictions" = 0
  in
  (* Fresh BDD nodes: serve weighs each cached reply by the nodes its
     solve allocated, and nothing is evicted, so the cache weight is the
     misses' total.  Solver steps are not exported by serve; they come
     from re-running each program's query in-process the way the worker
     does, which must also render the same bytes. *)
  let nodes = counter "cache_weight" in
  let steps, rerun_ok =
    List.fold_left
      (fun (s, ok) (_, src, want) ->
        let r, u =
          Solver_ctx.with_fresh (fun () ->
              Engine.metered (fun () ->
                  Validate.check_data_race ~level:Validate.Witness (Programs.load src)))
        in
        (s + u.Engine.steps, ok && Serve.render_race r = want))
      (0, true) golden
  in
  let pick want a =
    List.filter_map (fun i -> if hit.(i) = want then Some (Float.Array.get a i) else None)
      (List.init n Fun.id)
  in
  let attempted = n + 1 and failed = !failed in
  let healthy = rerun_ok && up && down && counters_ok && setup.setup_ok in
  {
    attempted;
    failed = (if healthy then failed else failed + 1);
    queries = n;
    decided = n - failed;
    setup_s = median setup.times;
    alloc = g.alloc;
    major = g.major;
    peak_mb;
    steps;
    nodes;
    layers =
      [ ("serve.hit_ratio", float_of_int hits /. float_of_int n, "1");
        ("serve.hit_p50_s", median (pick true times), "s");
        ("serve.miss_p50_s", median (pick false times), "s");
        ("serve.hit_alloc_kwords", median (pick true words) /. 1e3, "kwords") ];
  }

(* ------------------------------------------------------------------ *)
(* The layer trace                                                      *)

let layer_trace ~seed ~seconds =
  let rows = ref [] in
  let row name v unit = rows := (name, v, unit) :: !rows in
  (* lang and encode: the front end over every bundled program *)
  let sources = List.map snd Programs.all_named in
  let load_s, infos = median_time 9 (fun () -> List.map Programs.load sources) in
  let g0 = gc_mark () in
  ignore (List.map Programs.load sources);
  let load_alloc = (gc_since g0).alloc in
  let make_s, _ = median_time 9 (fun () -> List.map (fun i -> Encode.make i) infos) in
  row "lang.load_s" load_s "s";
  row "lang.load_alloc_mwords" (load_alloc /. 1e6) "Mwords";
  row "encode.make_s" make_s "s";
  (* Table 1: one traced cold child per query *)
  let warm = max 3 (seconds / 2) in
  let children =
    List.map
      (fun (id, _, _) ->
        (id, spawn [ "--child"; id; "--trace"; "1"; "--warm"; string_of_int warm ]))
      table1
  in
  let get kv k = match kv with Some kv -> List.assoc k kv | None -> 0. in
  let total k = List.fold_left (fun acc (_, kv) -> acc +. get kv k) 0. children in
  List.iter
    (fun (id, kv) ->
      let q name v unit = row (Printf.sprintf "analysis.%s.%s" id name) v unit in
      q "query_s" (get kv "query_s") "s";
      q "unattributed_s" (get kv "query_s" -. get kv "treeauto_s") "s";
      q "pairs" (get kv "pairs") "count";
      q "pair_max_s" (get kv "pair_max_s") "s";
      q "steps" (get kv "steps") "count";
      q "warm_unattributed_s" (get kv "warm_s" -. get kv "warm_treeauto_s") "s";
      List.iter
        (fun (k, name) -> row (Printf.sprintf "trace.%s.%s" id name) (get kv k) "s")
        [ ("wall_p50", "wall_s"); ("wall_p25", "wall_p25_s"); ("wall_p75", "wall_p75_s") ])
    children;
  List.iter
    (fun op ->
      row ("treeauto." ^ op ^ ".calls") (total (op ^ ".calls")) "count";
      row ("treeauto." ^ op ^ ".s") (total (op ^ ".s")) "s")
    op_names;
  row "treeauto.states_out" (total "states_out") "states";
  row "treeauto.max_states"
    (List.fold_left (fun acc (_, kv) -> max acc (get kv "max_states")) 0. children)
    "states";
  row "bdd.fresh_nodes" (total "nodes") "count";
  row "bdd.warm_fresh_nodes" (total "warm_nodes") "count";
  row "analysis.unattributed_s" (total "query_s" -. total "treeauto_s") "s";
  row "analysis.warm_unattributed_s" (total "warm_s" -. total "warm_treeauto_s") "s";
  row "validate.s" (total "validate_s") "s";
  row "validate.replays" (total "replays") "count";
  row "gc.minor_collections" (total "minor_gcs") "count";
  row "gc.major_collections" (total "major_gcs") "count";
  row "trace.overhead_alloc_mwords" (total "overhead_alloc" /. 1e6) "Mwords";
  let table_failed =
    List.length (List.filter (fun (_, kv) -> get kv "ok" <> 1.) children)
  in
  (* the corpus and serve layers, on reduced workloads *)
  let corpus = corpus_batch ~seed ~per_class:1 in
  let serve = serve_repeat ~per_request:true ~seed ~passes:(max 2 seconds) () in
  let rows = List.rev !rows @ corpus.layers @ serve.layers in
  ( List.length children + corpus.attempted + serve.attempted,
    table_failed + corpus.failed + serve.failed,
    rows )

(* ------------------------------------------------------------------ *)
(* Output and command line                                              *)

let print_result ~attempted ~failed rows =
  let metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric rows))

let end_to_end r =
  [ ("setup_s", r.setup_s, "s");
    ("alloc_mwords", r.alloc /. 1e6, "Mwords");
    ("major_mwords", r.major /. 1e6, "Mwords");
    ("peak_rss_mb", r.peak_mb, "MB");
    ("solver_steps", float_of_int r.steps /. 1e3, "k");
    ("bdd_nodes", float_of_int r.nodes /. 1e3, "k");
    ("decided_ratio", float_of_int r.decided /. float_of_int (max 1 r.queries), "1") ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let child = ref "" and warm = ref 3 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W table1-cold|table1-warm|corpus-batch|serve-repeat");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length; scales the repeat counts");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the layer trace");
      ("--child", Arg.Set_string child, "Q run one Table 1 query, or only load them (internal)");
      ("--warm", Arg.Set_int warm, "K warm repeats of a traced child (internal)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let workloads = [ "table1-cold"; "table1-warm"; "corpus-batch"; "serve-repeat" ] in
  if !child = "load" then begin
    ignore (load_table1 ());
    emit [ ("ok", 1.) ]
  end
  else if !child <> "" then
    if !trace = 1 then child_trace !child !warm else child_cold !child
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end
  else if !trace = 1 then begin
    let attempted, failed, rows = layer_trace ~seed:!seed ~seconds:!seconds in
    print_result ~attempted ~failed rows;
    if failed > 0 then exit 1
  end
  else begin
    let s = max 1 !seconds in
    let r =
      match !workload with
      | "table1-cold" -> table1_cold ~seed:!seed
      | "table1-warm" -> table1_warm ~seed:!seed ~passes:(max 1 (s / 3))
      | "corpus-batch" -> corpus_batch ~seed:!seed ~per_class:(max 1 (3 * s / 5))
      | _ -> serve_repeat ~seed:!seed ~passes:(10 * s) ()
    in
    print_result ~attempted:r.attempted ~failed:r.failed (end_to_end r);
    if r.failed > 0 then exit 1
  end
