package org.apache.spark.rmabench

import org.apache.spark.SparkContext

/** Bridge to the `private[spark]` listener bus: listener events are delivered
  * asynchronously, so a traced query's job, task and byte counts are complete
  * only once every event posted before the query returned has been handled.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
