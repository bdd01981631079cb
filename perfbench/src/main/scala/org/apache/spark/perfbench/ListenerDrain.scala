package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** The listener bus is asynchronous and its handle is package-private, so
  * this one-liner lives under `org.apache.spark`: after a call returns, the
  * benchmark waits until its listener has seen every event of that call.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
