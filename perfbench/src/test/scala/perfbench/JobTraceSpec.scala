package perfbench

import org.scalatest.funsuite.AnyFunSuite

class JobTraceSpec extends AnyFunSuite {

  private def site(frames: String*): String =
    ("org.apache.spark.sql.Dataset.collect(Dataset.scala:3561)" +: frames).mkString("\n")

  private val cases: Seq[(String, String, String)] = Seq(
    (site("repro.core.Metrics$.$anonfun$coverage$1(Metrics.scala:49)",
      "scala.collection.Iterator$$anon$9.next(Iterator.scala:584)",
      "repro.core.Mine$.evaluate(Mine.scala:163)"), "Metrics.coverage", "coverage"),
    (site("repro.core.Metrics$.provSizes(Metrics.scala:33)",
      "repro.core.Mine$.mineJoinGraph(Mine.scala:64)"), "Metrics.provSizes", "provsizes"),
    (site("repro.core.Mine$.numericFragments(Mine.scala:178)"), "Mine.numericFragments", "fragments"),
    (site("repro.core.Mine$.$anonfun$mineJoinGraph$1(Mine.scala:58)",
      "repro.core.Mine$StepTimer.time(Mine.scala:40)"), "Mine.mineJoinGraph", "mine"),
    (site("repro.ml.LocalSample$.$anonfun$collect$2(LocalSample.scala:42)"), "LocalSample.collect", "sample"),
    (site("repro.core.Enumerate$CostModel.$anonfun$ndv$1(Enumerate.scala:30)",
      "scala.collection.mutable.MapOps.getOrElseUpdate(Map.scala:193)"), "Enumerate.CostModel.ndv", "enumerate"),
    (site("repro.core.Enumerate$CostModel.$anonfun$rows$1(Enumerate.scala:26)"), "Enumerate.CostModel.rows", "enumerate"),
    (site("repro.core.Cajade$.explain(Cajade.scala:34)"), "Cajade.explain", "query"),
  )

  test("call sites map to the innermost program function and its layer") {
    cases.foreach { case (callSite, fn, layer) =>
      assert(JobTrace.programFunction(callSite).contains(fn), callSite)
      assert(JobTrace.layerOf(fn).contains(layer), fn)
    }
  }

  test("a call site without a program frame has no function") {
    val aqe = site("org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec.$anonfun$getFinalPhysicalPlan$1(AdaptiveSparkPlanExec.scala:291)",
      "java.base/java.lang.Thread.run(Thread.java:840)")
    assert(JobTrace.programFunction(aqe).isEmpty)
    assert(JobTrace.layerOf("FeatureSelect.filterAttrs").isEmpty)
  }

  test("busy time is the union of job intervals") {
    assert(JobTrace.busySeconds(Nil) == 0.0)
    assert(JobTrace.busySeconds(Seq((0L, 1000L), (500L, 1500L), (3000L, 3250L))) == 1.75)
    assert(JobTrace.busySeconds(Seq((2000L, 2100L), (0L, 5000L))) == 5.0)
  }
}
