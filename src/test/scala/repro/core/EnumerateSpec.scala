package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Schema._
import repro.data.{Mimic, Nba}

/** Join-graph enumeration tests (Algorithm 2): extension semantics,
  * deduplication up to relabeling, the PK-connectivity IsValid test, and
  * the cost cutoff.
  */
class EnumerateSpec extends SparkSpec {

  private lazy val nba = TestData.nba(spark)
  private lazy val mimic = TestData.mimic(spark)

  private val sgSmall = SchemaGraph(
    rels = Map(
      "r" -> RelMeta("r", Seq("k")),
      "s" -> RelMeta("s", Seq("k")),
      "t" -> RelMeta("t", Seq("k", "j"))),
    edges = Seq(
      SchemaEdge("r", "s", Seq(JoinCond(Seq("k" -> "k")))),
      SchemaEdge("s", "t", Seq(JoinCond(Seq("k" -> "k")), JoinCond(Seq("k" -> "j"))))))
  private val qSmall = Query.QuerySpec("q", Seq("r" -> "r1"), Nil, Nil, Seq("r" -> "k"), Query.CountStar("c"))

  test("extending Ω₀ adds one context node per adjacent condition") {
    val ext = Enumerate.extend(JoinGraph.empty, sgSmall, qSmall)
    // r only touches s via one condition → exactly one extension.
    assert(ext.size == 1)
    assert(ext.head.contextNodes.map(_.rel) == Seq("s"))
    assert(ext.head.edges.head.queryAlias.contains("r1"))
  }

  test("second-level extensions include both s–t conditions") {
    val l1 = Enumerate.extend(JoinGraph.empty, sgSmall, qSmall)
    val l2 = l1.flatMap(g => Enumerate.extend(g, sgSmall, qSmall))
    val rels = l2.flatMap(_.contextNodes.map(_.rel))
    assert(rels.contains("t"))
    // s–t has two conditions → at least two distinct two-edge graphs with t.
    assert(l2.count(_.contextNodes.map(_.rel).contains("t")) >= 2)
  }

  test("addEdge connects to existing same-relation nodes without duplicating") {
    val g1 = Enumerate.extend(JoinGraph.empty, sgSmall, qSmall).head
    val cond = JoinCond(Seq("k" -> "k"))
    val added = Enumerate.addEdge(g1, 0, Some("r1"), "s", cond)
    // One fresh-node graph; the existing s node already has this exact
    // edge, so no connect-existing variant is produced.
    assert(added.size == 1)
    assert(added.head.contextNodes.size == 2)
  }

  test("PT never appears as both endpoints of an edge") {
    val all = Enumerate.extend(JoinGraph.empty, Nba.schemaGraph, Nba.qNba4)
    assert(all.forall(_.edges.forall(e => e.toNode != 0)))
  }

  test("canonical form deduplicates context-node relabelings") {
    val a = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "x"), JGNode(2, "y")),
      Vector(
        JGEdge(0, 1, Some("g"), JoinCond(Seq("a" -> "a"))),
        JGEdge(1, 2, None, JoinCond(Seq("b" -> "b")))))
    val b = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "y"), JGNode(2, "x")),
      Vector(
        JGEdge(0, 2, Some("g"), JoinCond(Seq("a" -> "a"))),
        JGEdge(2, 1, None, JoinCond(Seq("b" -> "b")))))
    assert(a.canonical == b.canonical)
  }
  test("canonical form distinguishes different conditions") {
    val a = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "x")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("a" -> "a")))))
    val b = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "x")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("a" -> "b")))))
    assert(a.canonical != b.canonical)
  }

  test("pkConnected accepts fully keyed context nodes") {
    val jg = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "team")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("winner_id" -> "team_id")))))
    assert(Enumerate.pkConnected(jg, Nba.schemaGraph))
  }
  test("pkConnected rejects partially keyed context nodes (Section 4 guard)") {
    // player_salary PK is (player_id, season_id); joining only season_id
    // must be rejected until a second edge covers player_id.
    val partial = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "player_salary")),
      Vector(JGEdge(0, 1, Some("s"), JoinCond(Seq("season_id" -> "season_id")))))
    assert(!Enumerate.pkConnected(partial, Nba.schemaGraph))
    val full = JoinGraph(
      partial.nodes :+ JGNode(2, "player"),
      partial.edges :+ JGEdge(1, 2, None, JoinCond(Seq("player_id" -> "player_id"))))
    assert(Enumerate.pkConnected(full, Nba.schemaGraph))
  }

  test("cost model: fan-out reflects relation size over NDV") {
    val cm = new Enumerate.CostModel(nba)
    val jg = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "team")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("winner_id" -> "team_id")))))
    // team joined on its key: fan-out ≈ 1 → estimate ≈ |PT|.
    val est = cm.estimate(jg, ptRows = 100)
    assert(est > 50 && est < 200)
  }
  test("cost model: non-key joins blow up the estimate") {
    val cm = new Enumerate.CostModel(nba)
    val jg = JoinGraph(
      Vector(JGNode(0, "PT"), JGNode(1, "player_game_stats")),
      Vector(JGEdge(0, 1, Some("g"), JoinCond(Seq("game_date" -> "game_date", "home_id" -> "home_id")))))
    // ~16 player rows per game → estimate well above |PT|.
    assert(cm.estimate(jg, 100) > 500)
  }

  test("cost model: one aggregate per relation and attributes keeps the estimates and the chosen graphs") {
    import org.apache.spark.sql.functions.{approx_count_distinct, col, concat_ws}
    // The reference fan-out takes |S| and NDV(S, A) from two separate actions.
    val fanOut = scala.collection.mutable.Map.empty[(String, Seq[String]), Double]
    def reference(g: JoinGraph): Double =
      g.edges.distinctBy(_.toNode).foldLeft(100.0) { (est, e) =>
        val rel = g.relOf(e.toNode)
        val attrs = e.cond.pairs.map(_._2)
        est * fanOut.getOrElseUpdate((rel, attrs), {
          val ndv = nba(rel).agg(approx_count_distinct(concat_ws("§", attrs.map(col): _*))).head().getLong(0)
          nba(rel).count().toDouble / math.max(1L, ndv)
        })
      }
    val cm = new Enumerate.CostModel(nba)
    val all = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 2, maxJoinGraphs = 1000, qCostThreshold = 1e12), 100)
    assert(all.size == 25)
    all.foreach(g => assert(cm.estimate(g, 100) == reference(g), g.describe))
    // A cost cut of 2000 keeps the 18 graphs estimated at |PT| and these four, cheapest first.
    val cut = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 2, maxJoinGraphs = 1000, qCostThreshold = 2000), 100)
    assert(cut.size == 22)
    assert(cut.drop(18).map(_.describe) == Seq(
      "PT(g)-[game_date=game_date,home_id=home_id]->team_game_stats#1 ; team_game_stats#1-[team_id=team_id]->team#2",
      "PT(g)-[game_date=game_date,home_id=home_id]->lineup_game_stats#1 ; lineup_game_stats#1-[lineup_id=lineup_id]->lineup#2",
      "PT(t)-[team_id=team_id]->play_for#1 ; play_for#1-[player_id=player_id]->player#2",
      "PT(g)-[game_date=game_date,home_id=home_id]->player_game_stats#1 ; player_game_stats#1-[player_id=player_id]->player#2"))
  }

  test("enumerate produces Ω₀ first and respects maxEdges") {
    val params = Params(maxEdges = 1, maxJoinGraphs = 50)
    val graphs = Enumerate.enumerate(nba, Nba.qNba4, params, ptRows = 100)
    assert(graphs.head.edges.isEmpty)
    assert(graphs.tail.forall(_.edges.size == 1))
  }
  test("enumerate yields no duplicate canonical forms") {
    val params = Params(maxEdges = 2, maxJoinGraphs = 100)
    val graphs = Enumerate.enumerate(nba, Nba.qNba4, params, ptRows = 100)
    val keys = graphs.map(_.canonical)
    assert(keys.distinct.size == keys.size)
  }
  test("all enumerated graphs pass the PK-connectivity test") {
    val params = Params(maxEdges = 2, maxJoinGraphs = 100)
    val graphs = Enumerate.enumerate(nba, Nba.qNba4, params, ptRows = 100)
    assert(graphs.tail.forall(g => Enumerate.pkConnected(g, Nba.schemaGraph)))
  }
  test("λ_qCost cutoff drops expensive graphs") {
    val loose = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 1, qCostThreshold = 1e9), 100)
    val tight = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 1, qCostThreshold = 50), 100)
    assert(tight.size < loose.size)
  }
  test("maxJoinGraphs caps the enumeration") {
    val graphs = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 3, maxJoinGraphs = 10), 100)
    assert(graphs.size <= 10)
  }
  test("MIMIC enumeration reaches two-hop patient contexts") {
    val graphs = Enumerate.enumerate(mimic, Mimic.qMimicInsurance, Params(maxEdges = 2, maxJoinGraphs = 100), 100)
    val rels = graphs.flatMap(_.contextNodes.map(_.rel)).toSet
    assert(rels.contains("patients"))
    assert(rels.contains("icustays") || rels.contains("procedures") || rels.contains("diagnoses"))
  }
  test("join-graph count grows with λ_#edges (Figure 8's driver)") {
    val n1 = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 1, maxJoinGraphs = 1000), 100).size
    val n2 = Enumerate.enumerate(nba, Nba.qNba4, Params(maxEdges = 2, maxJoinGraphs = 1000), 100).size
    assert(n2 > n1)
  }
}
