package perfbench

import java.io.File

import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import org.scalatest.funsuite.AnyFunSuite

class ReportSpec extends AnyFunSuite {

  private def values(ms: Seq[Report.Metric]): Map[String, Double] =
    ms.zipWithIndex.map { case (m, i) => m.name -> (i + 0.25) }.toMap

  private def units(js: JValue, section: String): Map[String, String] =
    (js \ section).children.map(m => (m \ "name").values.toString -> (m \ "unit").values.toString).toMap

  test("the result line names every metric of its mode with its unit") {
    Seq(false, true).foreach { trace =>
      val defs = Report.metricsFor(trace)
      val js = parse(Report.json(correct = true, 5, 0, trace, values(defs)))
      assert((js \ "correct") == JBool(true))
      assert((js \ "attempted") == JInt(5))
      assert((js \ "failed") == JInt(0))
      val metrics = (js \ "metrics").asInstanceOf[JObject].obj.toMap
      assert(metrics.keySet == defs.map(_.name).toSet)
      defs.zipWithIndex.foreach { case (m, i) =>
        assert(metrics(m.name) \ "unit" == JString(m.unit))
        assert(metrics(m.name) \ "value" == JDouble(i + 0.25))
      }
    }
  }

  test("a missing metric value is an error, not a silent gap") {
    val partial = values(Report.endToEnd) - "explain_s"
    assertThrows[IllegalArgumentException](Report.json(correct = true, 1, 0, trace = false, partial))
  }

  test("BENCHMARK.json declares the same metrics and workloads as the benchmark") {
    val js = parse(new File("../BENCHMARK.json"))
    assert(units(js, "end_to_end") == Report.endToEnd.map(m => m.name -> m.unit).toMap)
    assert(units(js, "per_layer") == Report.perLayer.map(m => m.name -> m.unit).toMap)
    val workloads = (js \ "workloads").children.map(w => ((w \ "name").values.toString, (w \ "why").values.toString))
    assert(workloads == Workloads.all.map(w => (w.name, w.why)))
  }

  test("arguments parse, and bad ones are refused with a reason") {
    val ok = ExplainBench.parseArgs(Array("--workload", "nba-wins-e1", "--seed", "7", "--seconds", "10", "--trace", "1"))
    assert(ok.map(a => (a.workload.name, a.seed, a.seconds, a.trace)) == Right(("nba-wins-e1", 7L, 10, true)))
    Seq(
      Array("--workload", "nope", "--seed", "7", "--seconds", "10", "--trace", "0"),
      Array("--workload", "nba-wins-e1", "--seed", "x", "--seconds", "10", "--trace", "0"),
      Array("--workload", "nba-wins-e1", "--seed", "7", "--seconds", "10", "--trace", "2"),
      Array("--workload", "nba-wins-e1", "--seed", "7", "--seconds", "10"),
    ).foreach(a => assert(ExplainBench.parseArgs(a).isLeft, a.mkString(" ")))
  }
}
